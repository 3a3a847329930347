package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"shortcutmining/internal/core"
	"shortcutmining/internal/dram"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
)

// goldenPath is the simulator's pinned per-(network, strategy) summary,
// relative to the repository root.
var goldenPath = filepath.Join("internal", "core", "testdata", "simulate_golden.json")

// goldenRun mirrors one entry of the golden file: every externally
// meaningful RunStats field of one simulation.
type goldenRun struct {
	Network         string       `json:"network"`
	Strategy        string       `json:"strategy"`
	Traffic         dram.Traffic `json:"traffic"`
	ComputeCycles   int64        `json:"compute_cycles"`
	MemCycles       int64        `json:"mem_cycles"`
	TotalCycles     int64        `json:"total_cycles"`
	SRAMBytes       int64        `json:"sram_bytes"`
	MACs            int64        `json:"macs"`
	PeakUsedBanks   int          `json:"peak_used_banks"`
	PeakPinnedBanks int          `json:"peak_pinned_banks"`
	RoleSwitches    int64        `json:"role_switches"`
	BanksRecycled   int64        `json:"banks_recycled"`
	BanksEvicted    int64        `json:"banks_evicted"`
	Layers          int          `json:"layers"`
}

func summarize(r stats.RunStats) goldenRun {
	return goldenRun{
		Network: r.Network, Strategy: r.Strategy, Traffic: r.Traffic,
		ComputeCycles: r.ComputeCycles, MemCycles: r.MemCycles,
		TotalCycles: r.TotalCycles, SRAMBytes: r.SRAMBytes, MACs: r.MACs,
		PeakUsedBanks: r.PeakUsedBanks, PeakPinnedBanks: r.PeakPinnedBanks,
		RoleSwitches: r.RoleSwitches, BanksRecycled: r.BanksRecycled,
		BanksEvicted: r.BanksEvicted, Layers: len(r.Layers),
	}
}

// loadGolden reads the golden file into a network/strategy index.
func loadGolden(root string) (map[string]goldenRun, error) {
	raw, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, err
	}
	var runs []goldenRun
	if err := json.Unmarshal(raw, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	out := make(map[string]goldenRun, len(runs))
	for _, g := range runs {
		out[g.Network+"/"+g.Strategy] = g
	}
	return out, nil
}

// modelOf is the simulated statistics one op contributes.
func modelOf(r stats.RunStats) modelSum {
	return modelSum{
		ops:          1,
		fmapBytes:    r.FmapTrafficBytes(),
		cycles:       r.TotalCycles,
		recycled:     r.BanksRecycled,
		roleSwitches: r.RoleSwitches,
		peakBanks:    int64(r.PeakUsedBanks),
	}
}

// buildNetworks builds zoo networks by name, timing each nn.Build when
// tr is set.
func buildNetworks(names []string, tr *tracer) ([]*nn.Network, error) {
	out := make([]*nn.Network, len(names))
	for i, name := range names {
		start := time.Now()
		net, err := nn.Build(name)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.record("nn.Build", 0, int64(i), start, time.Now())
		}
		out[i] = net
	}
	return out, nil
}

// stepper runs simulations through the resumable Run API. With a
// tracer it records a span around NewRun, every Step (named by the
// kind of the layer it executes; the last Step, which also runs the
// epilogue, separately) and Result, plus each Step's allocations.
// A stepper belongs to one goroutine.
type stepper struct {
	tr  *tracer
	tid int
	ac  *allocCounter
}

func newStepper(tr *tracer, tid int) *stepper {
	s := &stepper{tr: tr, tid: tid}
	if tr != nil {
		s.ac = newAllocCounter()
	}
	return s
}

// stepSpanNames caches "core.Step.<kind>" per layer kind so the traced
// loop does not build strings.
var stepSpanNames = func() map[nn.OpKind]string {
	m := map[nn.OpKind]string{}
	for k := nn.OpInput; k <= nn.OpShuffle; k++ {
		m[k] = "core.Step." + k.String()
	}
	return m
}()

func (s *stepper) simulate(ctx context.Context, net *nn.Network, cfg core.Config, strat core.Strategy, op int64) (stats.RunStats, error) {
	if s.tr == nil {
		run, err := core.NewRun(net, cfg, strat, nil, nil)
		if err != nil {
			return stats.RunStats{}, err
		}
		for {
			done, err := run.Step(ctx)
			if err != nil {
				return stats.RunStats{}, err
			}
			if done {
				return run.Result()
			}
		}
	}
	t0 := time.Now()
	run, err := core.NewRun(net, cfg, strat, nil, nil)
	t1 := time.Now()
	s.tr.record("core.NewRun", s.tid, op, t0, t1)
	if err != nil {
		return stats.RunStats{}, err
	}
	for {
		name := stepSpanNames[net.Layers[run.NextLayer()].Kind]
		a0 := s.ac.read()
		t0 := time.Now()
		done, err := run.Step(ctx)
		t1 := time.Now()
		a1 := s.ac.read()
		if err != nil {
			return stats.RunStats{}, err
		}
		if done {
			name = "core.Step.final"
		}
		s.tr.record(name, s.tid, op, t0, t1)
		s.tr.allocs(name, a1-a0)
		if done {
			break
		}
	}
	t0 = time.Now()
	res, err := run.Result()
	s.tr.record("core.Result", s.tid, op, t0, time.Now())
	return res, err
}
