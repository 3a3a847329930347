package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"shortcutmining/internal/fault"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/trace"
)

// roundtrip encodes a snapshot to JSON and decodes it back, the way a
// journal checkpoint record carries it across a process boundary.
func roundtrip(t *testing.T, snap *RunSnapshot) *RunSnapshot {
	t.Helper()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var got RunSnapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	return &got
}

// TestSnapshotRestoreBitIdentical is the suspend-at-every-boundary
// golden test lifted across a serialization boundary: at every layer
// boundary the run is suspended, snapshotted, JSON-round-tripped,
// restored into a brand-new Run (fresh pool, fresh channel), and
// continued. The final RunStats must be bit-identical to the
// uninterrupted Simulate for every strategy.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	net := nn.MustBuild("squeezenet-bypass")
	cfg := Default()
	for _, strat := range Strategies() {
		want, err := Simulate(net, cfg, strat, nil)
		if err != nil {
			t.Fatalf("%s: Simulate: %v", strat, err)
		}
		r, err := NewRun(net, cfg, strat, nil, nil)
		if err != nil {
			t.Fatalf("%s: NewRun: %v", strat, err)
		}
		restores := 0
		for done := false; !done; {
			done, err = r.Step(context.Background())
			if err != nil {
				t.Fatalf("%s: step at layer %d: %v", strat, r.NextLayer(), err)
			}
			if done {
				break
			}
			if _, err := r.Suspend(); err != nil {
				t.Fatalf("%s: suspend at layer %d: %v", strat, r.NextLayer(), err)
			}
			snap, err := r.Snapshot()
			if err != nil {
				t.Fatalf("%s: snapshot at layer %d: %v", strat, r.NextLayer(), err)
			}
			r, err = RestoreRun(net, cfg, roundtrip(t, snap))
			if err != nil {
				t.Fatalf("%s: restore at layer %d: %v", strat, snap.Next, err)
			}
			if !r.Suspended() {
				t.Fatalf("%s: restored run not suspended", strat)
			}
			restores++
		}
		got, err := r.Result()
		if err != nil {
			t.Fatalf("%s: Result: %v", strat, err)
		}
		if g, w := runJSON(t, got), runJSON(t, want); g != w {
			t.Errorf("%s: snapshot/restore changed RunStats\n got %s\nwant %s", strat, g, w)
		}
		if restores != r.NumLayers()-1 {
			t.Errorf("%s: %d restores, want %d (one per interior boundary)", strat, restores, r.NumLayers()-1)
		}
		if sc := r.Sched(); sc.Resumes == 0 {
			t.Errorf("%s: restored run resumed nothing: %+v", strat, sc)
		}
	}
}

// TestSnapshotSchedLedgerSurvives: the multi-tenancy cost ledger rides
// along with the snapshot so a restored run reports the full
// suspend/resume history, not just the post-restore part.
func TestSnapshotSchedLedgerSurvives(t *testing.T) {
	net := nn.MustBuild("resnet18")
	cfg := Default()
	r, err := NewRun(net, cfg, SCM, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := r.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Suspend(); err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := r.Sched()
	r2, err := RestoreRun(net, cfg, roundtrip(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Sched(); got != before {
		t.Errorf("restored ledger = %+v, want %+v", got, before)
	}
	for done := false; !done; {
		if done, err = r2.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	after := r2.Sched()
	if after.Suspends != before.Suspends || after.Resumes != before.Resumes+1 {
		t.Errorf("ledger after restore+finish = %+v (before %+v)", after, before)
	}
}

// TestSnapshotRefusals pins the attachment and lifecycle guards.
func TestSnapshotRefusals(t *testing.T) {
	net := nn.MustBuild("plain34")
	cfg := Default()

	t.Run("not suspended", func(t *testing.T) {
		r, err := NewRun(net, cfg, SCM, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Snapshot(); err == nil || !strings.Contains(err.Error(), "suspended") {
			t.Errorf("Snapshot on running run: err = %v, want suspension requirement", err)
		}
	})
	t.Run("traced", func(t *testing.T) {
		r, err := NewRun(net, cfg, SCM, &trace.Buffer{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		mustSuspend(t, r)
		if _, err := r.Snapshot(); err == nil || !strings.Contains(err.Error(), "traced") {
			t.Errorf("Snapshot of traced run: err = %v, want refusal", err)
		}
	})
	t.Run("nop recorder is untraced", func(t *testing.T) {
		r, err := NewRun(net, cfg, SCM, trace.Nop{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		mustSuspend(t, r)
		if _, err := r.Snapshot(); err != nil {
			t.Errorf("Snapshot of a trace.Nop run: %v, want success", err)
		}
	})
	t.Run("observed", func(t *testing.T) {
		r, err := NewRun(net, cfg, SCM, nil, metrics.New())
		if err != nil {
			t.Fatal(err)
		}
		mustSuspend(t, r)
		if _, err := r.Snapshot(); err == nil || !strings.Contains(err.Error(), "observed") {
			t.Errorf("Snapshot of observed run: err = %v, want refusal", err)
		}
	})
	t.Run("fault-injected", func(t *testing.T) {
		fcfg := cfg
		fcfg.Faults = &fault.Spec{Seed: 3, DropProb: 0.1}
		r, err := NewRun(net, fcfg, SCM, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		mustSuspend(t, r)
		if _, err := r.Snapshot(); err == nil || !strings.Contains(err.Error(), "fault") {
			t.Errorf("Snapshot of fault-injected run: err = %v, want refusal", err)
		}
	})
}

func mustSuspend(t *testing.T, r *Run) {
	t.Helper()
	if _, err := r.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Suspend(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotValidate rejects malformed snapshots with classified
// errors instead of building a run that corrupts state later.
func TestSnapshotValidate(t *testing.T) {
	net := nn.MustBuild("plain34")
	cfg := Default()
	r, err := NewRun(net, cfg, SCM, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Suspend(); err != nil {
		t.Fatal(err)
	}
	good, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(s *RunSnapshot)
		want   string
	}{
		{"version", func(s *RunSnapshot) { s.Version = 99 }, "version"},
		{"network", func(s *RunSnapshot) { s.Network = "alexnet" }, "network"},
		{"next out of range", func(s *RunSnapshot) { s.Next = len(net.Layers) + 3 }, "next layer"},
		{"layer records", func(s *RunSnapshot) { s.Scratch.Layers = s.Scratch.Layers[:1] }, "layer records"},
		{"negative clock", func(s *RunSnapshot) { s.Clock = -1 }, "cycle cursor"},
		{"resident producer", func(s *RunSnapshot) {
			s.Residents = append(s.Residents, ResidentSnapshot{Producer: 5000})
		}, "producer"},
		{"duplicate resident", func(s *RunSnapshot) {
			s.Residents = append(s.Residents, s.Residents[0])
		}, "duplicate"},
		{"resident bytes", func(s *RunSnapshot) {
			s.Residents[0].OnChip = s.Residents[0].Total + 1
		}, "byte counts"},
		{"saved role", func(s *RunSnapshot) {
			s.Saved = append(s.Saved, SavedBuffer{Producer: good.Residents[0].Producer, Banks: 1, Role: 42})
		}, "role"},
		{"saved banks", func(s *RunSnapshot) {
			s.Saved = append(s.Saved, SavedBuffer{Producer: good.Residents[0].Producer, Banks: 0})
		}, "banks"},
		{"saved orphan", func(s *RunSnapshot) {
			s.Saved = append(s.Saved, SavedBuffer{Producer: len(net.Layers) - 1, Banks: 1})
		}, "no resident"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := roundtrip(t, good)
			tc.mutate(s)
			_, err := RestoreRun(net, cfg, s)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("RestoreRun(%s) = %v, want error containing %q", tc.name, err, tc.want)
			}
		})
	}

	if _, err := RestoreRun(net, cfg, nil); err == nil {
		t.Error("RestoreRun(nil) succeeded")
	}
	fcfg := cfg
	fcfg.Faults = &fault.Spec{Seed: 1, DropProb: 0.5}
	if _, err := RestoreRun(net, fcfg, roundtrip(t, good)); err == nil ||
		!strings.Contains(err.Error(), "fault") {
		t.Errorf("RestoreRun under faulty config = %v, want refusal", err)
	}
}
