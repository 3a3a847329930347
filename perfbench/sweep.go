package main

import (
	"context"
	"fmt"
	"time"

	"shortcutmining/internal/core"
	"shortcutmining/internal/dse"
	"shortcutmining/internal/fpga"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sram"
)

const sweepNetwork = "resnet34"

// sweep calls dse.ExploreContext on resnet34 over the seeded
// DefaultSpace with parallel = nproc, back to back. One op is one design
// point; every outcome is checked against a reference computed in setup
// from fpga.Estimate and a direct core simulation of the point.
type sweep struct {
	net      *nn.Network
	space    dse.Space
	dev      fpga.Device
	parallel int
	want     []dse.Outcome
	model    []modelSum // per point; zero for points that do not fit
}

// prepareSweep generates the seeded order of the design space.
func prepareSweep(e *env) setupFunc {
	space := sweepSpace(e.seed)
	return func(ctx context.Context, tr *tracer) (workload, error) {
		return setupSweep(ctx, e, space, tr)
	}
}

func setupSweep(ctx context.Context, e *env, space dse.Space, tr *tracer) (workload, error) {
	nets, err := buildNetworks([]string{sweepNetwork}, tr)
	if err != nil {
		return nil, err
	}
	w := &sweep{net: nets[0], space: space, dev: fpga.VC709(), parallel: e.procs}
	st := newStepper(tr, 0)
	for i, p := range spacePoints(w.space) {
		o, m, err := referenceOutcome(ctx, st, w.net, w.dev, p, int64(i))
		if err != nil {
			return nil, fmt.Errorf("reference %v: %w", p, err)
		}
		w.want = append(w.want, o)
		w.model = append(w.model, m)
	}
	// Warm-up: one sweep, checked like a timed one.
	got, err := dse.ExploreContext(ctx, w.net, core.Default(), w.space, w.dev, w.parallel)
	if err != nil {
		return nil, err
	}
	if bad := w.mismatches(got); bad > 0 {
		return nil, fmt.Errorf("warm-up sweep: %d outcomes differ from the reference", bad)
	}
	return w, nil
}

// spacePoints enumerates s in dse's documented order: banks, bank
// size, PE array, bandwidth, outermost first.
func spacePoints(s dse.Space) []dse.Point {
	var out []dse.Point
	for _, b := range s.Banks {
		for _, kb := range s.BankKiB {
			for _, pe := range s.PE {
				for _, bw := range s.FmapGBps {
					out = append(out, dse.Point{Banks: b, BankKiB: kb, Tn: pe[0], Tm: pe[1], FmapGBps: bw})
				}
			}
		}
	}
	return out
}

// referenceOutcome evaluates one design point without the dse package:
// the point's platform (the calibrated default with the pool, PE array
// and bandwidth replaced, reserve banks capped at a quarter of a small
// pool), its device fit, and, if it fits, an SCM simulation.
func referenceOutcome(ctx context.Context, st *stepper, net *nn.Network, dev fpga.Device, p dse.Point, op int64) (dse.Outcome, modelSum, error) {
	cfg := core.Default()
	cfg.Pool = sram.Config{NumBanks: p.Banks, BankBytes: p.BankKiB << 10}
	cfg.PE.Tn, cfg.PE.Tm = p.Tn, p.Tm
	cfg.DRAM.BandwidthGBps = p.FmapGBps
	if cfg.ReserveBanks >= cfg.Pool.NumBanks {
		cfg.ReserveBanks = cfg.Pool.NumBanks / 4
	}
	rep, err := fpga.Estimate(dev, fpga.Design{
		MACs:           cfg.PE.NumMACs(),
		PoolBanks:      cfg.Pool.NumBanks,
		BankBytes:      cfg.Pool.BankBytes,
		WeightBufBytes: cfg.WeightBufBytes,
		LogicalBuffers: true,
	})
	if err != nil {
		return dse.Outcome{}, modelSum{}, err
	}
	o := dse.Outcome{
		Point: p, Fits: rep.Fits,
		BRAMUtil: rep.BRAMUtil, DSPUtil: rep.DSPUtil, LUTUtil: rep.LUTUtil,
		SRAMKiB: cfg.Pool.TotalBytes() >> 10,
	}
	if !rep.Fits {
		return o, modelSum{}, nil
	}
	r, err := st.simulate(ctx, net, cfg, core.SCM, op)
	if err != nil {
		return dse.Outcome{}, modelSum{}, err
	}
	o.Throughput = r.Throughput()
	o.FmapTraffic = r.FmapTrafficBytes()
	o.EnergyMJ = r.Energy.TotalMJ()
	return o, modelOf(r), nil
}

// mismatches counts the outcomes that differ from the reference.
func (w *sweep) mismatches(got []dse.Outcome) int {
	bad := len(w.want) - len(got)
	if bad < 0 {
		bad = -bad
	}
	for i := range got {
		if i >= len(w.want) || got[i] != w.want[i] {
			bad++
		}
	}
	return bad
}

func (w *sweep) run(ctx context.Context, ph *phase) error {
	l := ph.newLane()
	cfg := core.Default()
	deadline := ph.deadline()
	fits := 0
	for op := int64(0); time.Now().Before(deadline); op++ {
		start := time.Now()
		got, err := dse.ExploreContext(ctx, w.net, cfg, w.space, w.dev, w.parallel)
		end := time.Now()
		if ph.tr != nil {
			ph.tr.record("dse.ExploreContext", l.id, op, start, end)
		}
		if err != nil {
			l.attempted += int64(len(w.want))
			l.fail("sweep %d: %v", op, err)
			continue
		}
		l.complete(start, end, ph, len(w.want))
		for i := range w.want {
			if i >= len(got) || got[i] != w.want[i] {
				l.fail("sweep %d point %v differs from the reference", op, w.want[i].Point)
				continue
			}
			if w.want[i].Fits {
				fits++
				l.model.add(w.model[i])
			}
		}
	}
	if l.attempted > 0 {
		ph.extra["dse.fit_ratio"] = float64(fits) / float64(l.attempted)
	}
	return nil
}

// verify has nothing left to do: outcomes were compared inline with
// the reference computed in setup.
func (w *sweep) verify(context.Context, *phase) error { return nil }

func (w *sweep) close() error { return nil }
