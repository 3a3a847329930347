package core

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"shortcutmining/internal/fault"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
	"shortcutmining/internal/trace"
)

// faultsGoldenPath pins the runs where bank identity is observable:
// fault injection picks victim banks by index, EvictFarthest and
// StreamingRecycle reorder the free list, and a trace records every
// pool decision. simulate_golden.json covers only fault-free, untraced
// runs, where any bank layout with the same counts passes.
var faultsGoldenPath = filepath.Join("testdata", "simulate_faults_golden.json")

// faultsGoldenNets is the E22 network set.
var faultsGoldenNets = []string{"resnet34", "resnet50", "densenet121", "googlenet", "squeezenet-complex", "mobilenetv2"}

// faultsGoldenCase is one pinned run: an FNV-64 digest of the JSON
// RunStats (or the error text), plus, for traced runs, the event count
// and a digest of the JSON event stream.
type faultsGoldenCase struct {
	Case        string `json:"case"`
	Stats       string `json:"stats,omitempty"`
	Error       string `json:"error,omitempty"`
	Events      int    `json:"events,omitempty"`
	EventDigest string `json:"event_digest,omitempty"`
}

func fnvJSON(t testing.TB, vs ...any) string {
	h := fnv.New64a()
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func faultsGoldenRun(t testing.TB, name string, net *nn.Network, cfg Config, feat Features, rec trace.Recorder) faultsGoldenCase {
	c := faultsGoldenCase{Case: name}
	r, err := NewRunFeatures(net, cfg, feat, rec, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var res stats.RunStats
	for done := false; !done && err == nil; {
		done, err = r.Step(context.Background())
	}
	if err == nil {
		res, err = r.Result()
	}
	if err != nil {
		c.Error = err.Error()
		return c
	}
	c.Stats = fnvJSON(t, res)
	return c
}

// collectFaultsGolden runs the three pinned groups in a fixed order.
func collectFaultsGolden(t testing.TB) []faultsGoldenCase {
	var out []faultsGoldenCase
	for _, name := range faultsGoldenNets {
		net := nn.MustBuild(name)
		// E22: uniform bank failures, including the runs whose shrunken
		// pool can no longer back a tiling (recoverable-capacity errors).
		for _, s := range Strategies() {
			for seed := int64(1); seed <= 4; seed++ {
				for _, n := range []int{2, 8, 20} {
					cfg := Default()
					cfg.Faults = fault.UniformBankFailures(seed, n, 2, 8)
					out = append(out, faultsGoldenRun(t,
						fmt.Sprintf("e22/%s/%s/seed=%d/fail=%d", name, s, seed, n), net, cfg, s.Features(), nil))
				}
			}
		}
		// EvictFarthest + StreamingRecycle on a tight pool, where both
		// move banks between buffers and the free list.
		for _, kib := range []int{4, 8, 16} {
			cfg := Default()
			cfg.Pool.BankBytes = kib << 10
			cfg = cfg.WithPoolBytes(384 << 10)
			cfg.Eviction = EvictFarthest
			feat := SCM.Features()
			feat.StreamingRecycle = true
			out = append(out, faultsGoldenRun(t,
				fmt.Sprintf("evict-streaming/%s/bank=%dKiB", name, kib), net, cfg, feat, nil))
		}
		// Traced runs: the full event stream, stamps included.
		for _, s := range Strategies() {
			var buf trace.Buffer
			c := faultsGoldenRun(t, fmt.Sprintf("traced/%s/%s", name, s), net, Default(), s.Features(), &buf)
			c.Events = len(buf.Events)
			evs := make([]any, len(buf.Events))
			for i := range buf.Events {
				evs[i] = buf.Events[i]
			}
			c.EventDigest = fnvJSON(t, evs...)
			out = append(out, c)
		}
	}
	return out
}

// TestSimulateFaultsGolden pins fault-injected, evicting and traced
// runs against testdata/simulate_faults_golden.json. Regenerate with
// SCM_UPDATE_GOLDEN=1 — but a diff here means a pool or executor change
// moved a bank, an event or an error, which layout-preserving
// refactors must never do.
func TestSimulateFaultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("252 full-network runs")
	}
	got := collectFaultsGolden(t)
	if os.Getenv("SCM_UPDATE_GOLDEN") != "" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(faultsGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", faultsGoldenPath, len(got))
		return
	}
	raw, err := os.ReadFile(faultsGoldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with SCM_UPDATE_GOLDEN=1 to create): %v", err)
	}
	var want []faultsGoldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d entries, run produced %d (regenerate deliberately)", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s drifted:\n got  %+v\n want %+v", got[i].Case, got[i], want[i])
		}
	}
}
