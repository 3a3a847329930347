package core

import (
	"testing"

	"shortcutmining/internal/dram"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/tensor"
)

// concatNet: squeeze → (e1 ‖ e3) → concat → head, plus a consumer of
// e1 after the concat to exercise multi-consumer expansion.
func concatNet(t *testing.T) *nn.Network {
	t.Helper()
	b := nn.NewBuilder("cat", tensor.Shape{C: 8, H: 8, W: 8})
	sq := b.Conv("sq", b.InputName(), 4, 1, 1, 0) // 1
	e1 := b.Conv("e1", sq, 8, 1, 1, 0)            // 2
	e3 := b.Conv("e3", sq, 8, 3, 1, 1)            // 3
	cat := b.Concat("cat", e1, e3)                // 4
	head := b.Conv("head", cat, 8, 1, 1, 0)       // 5
	b.Concat("cat2", head, e1)                    // 6: e1 read again
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConsumptionPlanExpandsConcats(t *testing.T) {
	n := concatNet(t)
	cp := buildConsumptionPlan(n)

	// The concat layers themselves consume nothing.
	if len(cp.sources[4]) != 0 || len(cp.sources[6]) != 0 {
		t.Errorf("concat sources = %v / %v, want empty", cp.sources[4], cp.sources[6])
	}
	// head (5) reads e1 (2) and e3 (3) through the concat.
	if got := cp.sources[5]; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("head sources = %v, want [2 3]", got)
	}
	// sq (1) is read by e1 and e3 only.
	if cp.consumers[1] != 2 {
		t.Errorf("sq consumers = %d, want 2", cp.consumers[1])
	}
	// e1 (2) is read by head (through cat) and would be read again by
	// a consumer of cat2 — but cat2 has no consumers, so e1's last use
	// is head.
	if cp.consumers[2] != 1 || cp.lastUse[2] != 5 {
		t.Errorf("e1 consumers=%d lastUse=%d, want 1/5", cp.consumers[2], cp.lastUse[2])
	}
	// Unconsumed outputs last-use themselves.
	if cp.lastUse[6] != 6 {
		t.Errorf("cat2 lastUse = %d", cp.lastUse[6])
	}
}

func TestConsumptionPlanNestedConcats(t *testing.T) {
	b := nn.NewBuilder("nest", tensor.Shape{C: 4, H: 8, W: 8})
	a := b.Conv("a", b.InputName(), 4, 1, 1, 0) // 1
	c := b.Conv("c", b.InputName(), 4, 1, 1, 0) // 2
	cat1 := b.Concat("cat1", a, c)              // 3
	d := b.Conv("d", b.InputName(), 4, 1, 1, 0) // 4
	cat2 := b.Concat("cat2", cat1, d)           // 5
	b.Conv("head", cat2, 4, 1, 1, 0)            // 6
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cp := buildConsumptionPlan(n)
	// head reads a, c, d through two concat levels, in order.
	want := []int{1, 2, 4}
	got := cp.sources[6]
	if len(got) != len(want) {
		t.Fatalf("head sources = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("source[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// The input feeds a, c, d: three consumers.
	if cp.consumers[0] != 3 {
		t.Errorf("input consumers = %d, want 3", cp.consumers[0])
	}
}

func TestConsumptionPlanDuplicateReads(t *testing.T) {
	// add(x, x2) where both operands trace to the same producer via
	// different paths must keep the duplicate for traffic purposes.
	b := nn.NewBuilder("dup", tensor.Shape{C: 4, H: 8, W: 8})
	x := b.Conv("x", b.InputName(), 4, 1, 1, 0) // 1
	y := b.Conv("y", x, 4, 3, 1, 1)             // 2
	b.Add("add", x, y)                          // 3: x read alongside y
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cp := buildConsumptionPlan(n)
	if got := cp.sources[3]; len(got) != 2 {
		t.Fatalf("add sources = %v", got)
	}
	if got := cp.distinct[3]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("add distinct sources = %v, want [1 2]", got)
	}
	// x is consumed by two distinct layers (y and add), counted once
	// per layer.
	if cp.consumers[1] != 2 {
		t.Errorf("x consumers = %d, want 2", cp.consumers[1])
	}
}

func TestUniqueInts(t *testing.T) {
	cases := []struct {
		in, want []int
	}{
		{nil, nil},
		{[]int{1}, []int{1}},
		{[]int{3, 1, 3, 2, 1}, []int{3, 1, 2}},
	}
	for _, c := range cases {
		got := appendUniqueInts(nil, c.in)
		if len(got) != len(c.want) {
			t.Errorf("appendUniqueInts(nil, %v) = %v", c.in, got)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("appendUniqueInts(nil, %v)[%d] = %d, want %d", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestNextUseAfter(t *testing.T) {
	n := concatNet(t)
	e, err := newExecutor(n, smallConfig(), Features{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// e1 (2) is next used at head (5) from any point before.
	if got := e.nextUseAfter(2, 2); got != 5 {
		t.Errorf("nextUseAfter(e1, 2) = %d, want 5", got)
	}
	if got := e.nextUseAfter(2, 5); got != len(n.Layers)+1 {
		t.Errorf("nextUseAfter(e1, 5) = %d, want sentinel", got)
	}
}

func TestMemCyclesDualChannel(t *testing.T) {
	cfg := Default()
	cfg.DRAM.BandwidthGBps = 1.0  // fmap channel
	cfg.WeightBandwidthGBps = 2.0 // weight channel
	n := residualNet(t)
	e, err := newExecutor(n, cfg, Features{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tr dram.Traffic
	// At 200 MHz: fmap channel moves 5 B/cycle, weight channel 10.
	tr[dram.ClassIFMRead] = 500     // 100 cycles on the fmap channel
	tr[dram.ClassWeightRead] = 2000 // 200 cycles on the weight channel
	if got := e.memCycles(tr); got != 200 {
		t.Errorf("dual-channel cycles = %d, want 200 (weight-bound)", got)
	}
	tr[dram.ClassWeightRead] = 100 // 10 cycles
	if got := e.memCycles(tr); got != 100 {
		t.Errorf("dual-channel cycles = %d, want 100 (fmap-bound)", got)
	}
	// Shared channel: everything serializes.
	cfg.WeightBandwidthGBps = 0
	e2, err := newExecutor(n, cfg, Features{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.memCycles(tr); got != 120 {
		t.Errorf("shared-channel cycles = %d, want 120", got)
	}
}

func TestReadClassRules(t *testing.T) {
	n := residualNet(t) // input(0) c1(1) c2(2) c3(3) add(4)
	e, err := newExecutor(n, smallConfig(), Features{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline (no role switch): adjacency reads are plain IFM.
	e.feat = Features{}
	if got := e.readClass(0, n.Layers[1]); got != dram.ClassIFMRead {
		t.Errorf("image read class = %v", got)
	}
	if got := e.readClass(1, n.Layers[2]); got != dram.ClassIFMRead {
		t.Errorf("baseline adjacent class = %v", got)
	}
	if got := e.readClass(1, n.Layers[4]); got != dram.ClassShortcutRead {
		t.Errorf("shortcut class = %v", got)
	}
	// With role switching, a DRAM-sourced adjacent read is a spill.
	e.feat = SCM.Features()
	if got := e.readClass(1, n.Layers[2]); got != dram.ClassSpillRead {
		t.Errorf("spill class = %v", got)
	}
	if got := e.readClass(0, n.Layers[1]); got != dram.ClassIFMRead {
		t.Errorf("image read class under scm = %v", got)
	}
}
