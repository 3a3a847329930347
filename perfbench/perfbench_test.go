package main

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"
)

func testEnv(t *testing.T) *env {
	t.Helper()
	return &env{root: "..", work: t.TempDir(), seed: 7, seconds: 0.3, procs: 2}
}

// runPhase runs one short timed phase of w and verifies it.
func runPhase(t *testing.T, w workload, corrupt func()) (attempted, failed int64) {
	t.Helper()
	ctx := context.Background()
	ph := newPhase(200*time.Millisecond, nil)
	if err := w.run(ctx, ph); err != nil {
		t.Fatal(err)
	}
	ph.finish()
	if corrupt != nil {
		corrupt()
	}
	if err := w.verify(ctx, ph); err != nil {
		t.Fatal(err)
	}
	attempted, failed, _, _ = ph.totals()
	if attempted == 0 {
		t.Fatal("phase attempted no ops")
	}
	return attempted, failed
}

func TestPlansAreSeeded(t *testing.T) {
	cases := []struct {
		name string
		plan func(seed int64) any
	}{
		{"sim-zoo", func(s int64) any { return zooPlan(s, 48, 8) }},
		{"sweep-dse", func(s int64) any { return spacePoints(sweepSpace(s)) }},
		{"serve-hot", func(s int64) any { return hotPlan(s, len(hotKeys()), 2, 256) }},
		{"serve-durable", func(s int64) any { return durablePlan(s, 2, 256) }},
	}
	for _, c := range cases {
		if !reflect.DeepEqual(c.plan(1), c.plan(1)) {
			t.Errorf("%s: seed 1 gave two different plans", c.name)
		}
		if reflect.DeepEqual(c.plan(1), c.plan(2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same plan", c.name)
		}
	}
}

func TestDurablePlanKeysAreDistinct(t *testing.T) {
	type key struct {
		net   int
		strat string
		banks int
		bw    float64
	}
	seen := map[key]bool{}
	for _, op := range durableWarmOps() {
		seen[key{op.net, op.strat.String(), op.banks, op.bw}] = true
	}
	schedules, async := 0, 0
	plan := durablePlan(3, 2, 2000)
	for _, conn := range plan {
		for _, op := range conn {
			if op.schedule {
				schedules++
				continue
			}
			if op.async {
				async++
			}
			k := key{op.net, op.strat.String(), op.banks, op.bw}
			if seen[k] {
				t.Fatalf("simulate op %s repeats a platform", op.body)
			}
			seen[k] = true
		}
	}
	if schedules != 4000/blockOps || async != 4000/blockOps*asyncPerBlock {
		t.Errorf("%d schedule and %d async simulate ops in 4000, want %d and %d",
			schedules, async, 4000/blockOps, 4000/blockOps*asyncPerBlock)
	}
}

func TestSweepPointsMatchSpaceSize(t *testing.T) {
	s := sweepSpace(5)
	if got := len(spacePoints(s)); got != s.Size() {
		t.Fatalf("%d points, space size %d", got, s.Size())
	}
}

func TestSimZooGoldenCheck(t *testing.T) {
	w, err := prepareSimZoo(testEnv(t))(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, failed := runPhase(t, w, nil); failed != 0 {
		t.Fatalf("%d failed ops on an unmodified tree", failed)
	}
	// A wrong expected value: every golden summary off by one cycle.
	z := w.(*simZoo)
	for i := range z.pairs {
		z.pairs[i].want.TotalCycles++
	}
	attempted, failed := runPhase(t, w, nil)
	if failed != attempted {
		t.Fatalf("golden check flagged %d of %d ops fed a wrong expected value", failed, attempted)
	}
}

func TestSweepReferenceCheck(t *testing.T) {
	w, err := prepareSweep(testEnv(t))(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, failed := runPhase(t, w, nil); failed != 0 {
		t.Fatalf("%d failed points on an unmodified tree", failed)
	}
	s := w.(*sweep)
	s.want[3].FmapTraffic++
	attempted, failed := runPhase(t, w, nil)
	if sweeps := attempted / int64(len(s.want)); failed != sweeps {
		t.Fatalf("reference check flagged %d points over %d sweeps, want one per sweep", failed, sweeps)
	}
}

func TestServeHotReplyCheck(t *testing.T) {
	w, err := prepareServeHot(testEnv(t))(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if _, failed := runPhase(t, w, nil); failed != 0 {
		t.Fatalf("%d failed requests on an unmodified tree", failed)
	}
	h := w.(*serveHot)
	good := h.want[0]
	_, failed := runPhase(t, w, func() {
		h.want[0] = bytes.Replace(good, []byte(`"TotalCycles":`), []byte(`"TotalCycles":1`), 1)
	})
	if failed == 0 {
		t.Fatal("a wrong expected reply went unnoticed")
	}
}

func TestServeDurableResultCheck(t *testing.T) {
	w, err := prepareServeDurable(testEnv(t))(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if _, failed := runPhase(t, w, nil); failed != 0 {
		t.Fatalf("%d failed jobs on an unmodified tree", failed)
	}
	d := w.(*serveDurable)
	var ph *phase
	_, failed := runPhase(t, w, func() {
		// Feed a wrong expected value: recompute the first recorded
		// simulate job at another bandwidth than the one it ran with.
		for p := range d.phases {
			if ph == nil || p.start.After(ph.start) {
				ph = p
			}
		}
		for _, r := range d.phases[ph].lanes[0].ops {
			if !r.op.schedule && r.op.async {
				r.op.bw += 0.25
				return
			}
		}
		t.Fatal("no simulate job recorded")
	})
	if failed != 1 {
		t.Fatalf("result check flagged %d jobs, want 1", failed)
	}
}

func TestHistogramMedian(t *testing.T) {
	var h histogram
	for _, us := range []int{5, 1, 3, 2, 4000} {
		h.add(time.Duration(us) * time.Microsecond)
	}
	if got, want := h.median(), 3*time.Microsecond; got < want || got > want+want/128 {
		t.Errorf("median %v, want %v to the histogram's resolution", got, want)
	}
	if h.sum != 4011*time.Microsecond {
		t.Errorf("sum %v, want 4.011ms", h.sum)
	}
	for _, d := range []time.Duration{0, 127, 128, 255, 256, 1e9, 1 << 45} {
		if mid := time.Duration(bucketMid(bucketOf(d))); d < 1<<histMaxBits && (mid < d-d/128 || mid > d+d/128) {
			t.Errorf("%v lands in a bucket centred on %v", d, mid)
		}
	}
}

// The traced half must not grow the heap: recording a span under a
// known name allocates nothing.
func TestTracerRecordDoesNotAllocate(t *testing.T) {
	tr := newTracer()
	now := time.Now()
	if n := testing.AllocsPerRun(1000, func() {
		tr.record("core.Step.conv", 0, 0, now, now.Add(time.Microsecond))
	}); n != 0 {
		t.Errorf("record allocated %v times per span", n)
	}
}

func TestRefusesOutsideCheckout(t *testing.T) {
	var out, errOut bytes.Buffer
	code := realMain([]string{"--workload", "sim-zoo", "--seconds", "1", "--root", t.TempDir(), "--work", t.TempDir()}, &out, &errOut)
	if code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q: want a failure and no result", code, out.String())
	}
	if !strings.Contains(errOut.String(), "not a shortcutmining checkout") {
		t.Fatalf("stderr %q", errOut.String())
	}
}
