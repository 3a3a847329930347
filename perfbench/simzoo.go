package main

import (
	"context"
	"fmt"
	"time"

	"shortcutmining/internal/core"
	"shortcutmining/internal/nn"
)

// zooPasses is how many seeded permutations of the 48 pairs the plan
// holds; a run that outlasts them starts over from the first.
const zooPasses = 1024

// zooPair is one (network, strategy) simulation and its golden summary.
type zooPair struct {
	net   *nn.Network
	strat core.Strategy
	want  goldenRun
}

// simZoo is a single closed-loop caller simulating zoo pairs in seeded
// order through core.NewRun / Run.Step / Run.Result, checking every
// result against the simulator's golden file.
type simZoo struct {
	pairs  []zooPair
	plan   []int
	cursor int
}

// prepareSimZoo generates the seeded pair order over the 16 zoo
// networks × core.Strategies().
func prepareSimZoo(e *env) setupFunc {
	plan := zooPlan(e.seed, len(nn.ZooNames())*len(core.Strategies()), zooPasses)
	return func(ctx context.Context, tr *tracer) (workload, error) {
		return setupSimZoo(ctx, e, plan, tr)
	}
}

func setupSimZoo(ctx context.Context, e *env, plan []int, tr *tracer) (workload, error) {
	golden, err := loadGolden(e.root)
	if err != nil {
		return nil, err
	}
	nets, err := buildNetworks(nn.ZooNames(), tr)
	if err != nil {
		return nil, err
	}
	w := &simZoo{plan: plan}
	for _, net := range nets {
		for _, s := range core.Strategies() {
			want, ok := golden[net.Name+"/"+s.String()]
			if !ok {
				return nil, fmt.Errorf("no golden entry for %s/%s", net.Name, s)
			}
			w.pairs = append(w.pairs, zooPair{net: net, strat: s, want: want})
		}
	}
	// Warm-up: every pair once, checked like a timed op. It stays
	// untraced so the per-layer figures describe the timed ops.
	st := newStepper(nil, 0)
	for i, p := range w.pairs {
		if err := w.check(ctx, st, p, int64(-1-i)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

// check simulates one pair and compares it with the golden summary.
func (w *simZoo) check(ctx context.Context, st *stepper, p zooPair, op int64) error {
	res, err := st.simulate(ctx, p.net, core.Default(), p.strat, op)
	if err != nil {
		return err
	}
	if got := summarize(res); got != p.want {
		return fmt.Errorf("%s/%s differs from %s: got %+v, want %+v", p.net.Name, p.strat, goldenPath, got, p.want)
	}
	return nil
}

func (w *simZoo) run(ctx context.Context, ph *phase) error {
	l := ph.newLane()
	st := newStepper(ph.tr, l.id)
	cfg := core.Default()
	deadline := ph.deadline()
	for time.Now().Before(deadline) {
		p := w.pairs[w.plan[w.cursor%len(w.plan)]]
		op := int64(w.cursor)
		w.cursor++
		start := time.Now()
		res, err := st.simulate(ctx, p.net, cfg, p.strat, op)
		l.complete(start, time.Now(), ph, 1)
		if err != nil {
			l.fail("op %d %s/%s: %v", op, p.net.Name, p.strat, err)
			continue
		}
		if got := summarize(res); got != p.want {
			l.fail("op %d %s/%s differs from %s", op, p.net.Name, p.strat, goldenPath)
			continue
		}
		l.model.add(modelOf(res))
	}
	return nil
}

// verify has nothing left to do: every result was checked inline
// against the golden summary, which costs a struct comparison.
func (w *simZoo) verify(context.Context, *phase) error { return nil }

func (w *simZoo) close() error { return nil }
