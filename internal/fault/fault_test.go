package fault

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestParseSpecFull(t *testing.T) {
	spec, err := ParseSpec("seed=7; bank-fail@4:n=3; bank-fail@9:bank=7,9; bank-transient@6:n=2; dma-drop:p=0.05; bw-degrade@10:factor=0.5")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Seed != 7 {
		t.Errorf("seed = %d, want 7", spec.Seed)
	}
	if spec.DropProb != 0.05 {
		t.Errorf("drop prob = %g, want 0.05", spec.DropProb)
	}
	if len(spec.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(spec.Events))
	}
	if e := spec.Events[0]; e.Kind != BankFail || e.Layer != 4 || e.Count != 3 {
		t.Errorf("event 0 = %+v", e)
	}
	if e := spec.Events[1]; e.Kind != BankFail || e.Layer != 9 || len(e.Banks) != 2 || e.Banks[0] != 7 || e.Banks[1] != 9 {
		t.Errorf("event 1 = %+v", e)
	}
	if e := spec.Events[2]; e.Kind != BankTransient || e.Layer != 6 || e.Count != 2 {
		t.Errorf("event 2 = %+v", e)
	}
	if e := spec.Events[3]; e.Kind != BandwidthDegrade || e.Layer != 10 || e.Factor != 0.5 {
		t.Errorf("event 3 = %+v", e)
	}
}

func TestParseSpecDefaults(t *testing.T) {
	spec, err := ParseSpec("bank-fail@2")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Seed != 1 {
		t.Errorf("default seed = %d, want 1", spec.Seed)
	}
	if len(spec.Events) != 1 || spec.Events[0].Count != 1 {
		t.Errorf("events = %+v, want one single-bank failure", spec.Events)
	}
	if spec.Events[0].Layer != 2 {
		t.Errorf("layer = %d, want 2", spec.Events[0].Layer)
	}
}

func TestParseSpecEmpty(t *testing.T) {
	spec, err := ParseSpec("")
	if err != nil {
		t.Fatalf("ParseSpec(\"\"): %v", err)
	}
	if !spec.Empty() {
		t.Errorf("empty input should produce an empty spec, got %+v", spec)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"bogus-clause",
		"seed=abc",
		"bank-fail@x:n=1",
		"bank-fail@2:n=zero",
		"bank-fail@2:n=0",
		"bank-fail@2:n=-3",
		"bank-fail@2:n=999999999",
		"bank-fail@-1:n=1",
		"bank-fail@2:bank=-4",
		"dma-drop",
		"dma-drop:p=1.5",
		"dma-drop:p=-0.1",
		"dma-drop:p=nope",
		"bw-degrade@3",
		"bw-degrade@3:factor=0",
		"bw-degrade@3:factor=2",
		"bank-fail@2:=5",
		"bank-fail@2:1,2",
		"bank-fail@4:count=3",           // unknown key
		"dma-drop@5:p=0.1",              // dma-drop takes no trigger
		"bank-fail@4:n=x,n=3",           // every value of a repeated key must parse
		"bw-degrade@3:factor=0.5,y=1,2", // unknown key with a list value
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) = nil error, want failure", s)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, s := range []string{
		"seed=7;dma-drop:p=0.05;bank-fail@4:n=3;bank-fail@9:bank=7,9;bw-degrade@10:factor=0.5",
		"seed=1",
		"seed=42;bank-transient@0:n=2",
	} {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("reparse of %q (= %q): %v", s, spec.String(), err)
		}
		j1, _ := json.Marshal(spec)
		j2, _ := json.Marshal(again)
		if string(j1) != string(j2) {
			t.Errorf("round trip of %q changed spec:\n  first  %s\n  second %s", s, j1, j2)
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec, err := ParseSpec("seed=9;bank-fail@3:n=2;dma-drop:p=0.1;bw-degrade@5:factor=0.25")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Errorf("unmarshaled spec fails validation: %v", err)
	}
	if back.Seed != 9 || back.DropProb != 0.1 || len(back.Events) != 2 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	spec, err := ParseSpec("seed=5;dma-drop:p=0.3;bank-fail@2:n=2;bw-degrade@4:factor=0.5")
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]int, []bool) {
		inj := NewInjector(spec)
		var picks []int
		var fails []bool
		for layer := 0; layer < 6; layer++ {
			inj.ApplyLayer(layer)
			picks = append(picks, inj.Pick(34))
			fails = append(fails, inj.TransferFails())
		}
		return picks, fails
	}
	p1, f1 := run()
	p2, f2 := run()
	for i := range p1 {
		if p1[i] != p2[i] || f1[i] != f2[i] {
			t.Fatalf("run diverged at step %d: picks %v vs %v, fails %v vs %v", i, p1, p2, f1, f2)
		}
	}
}

func TestInjectorApplyLayer(t *testing.T) {
	spec, err := ParseSpec("seed=1;bank-fail@2:n=1;bank-transient@2:n=3;bw-degrade@3:factor=0.5;bank-fail@5:n=2")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(spec)
	if ev := inj.ApplyLayer(0); len(ev) != 0 {
		t.Errorf("layer 0 fired %d events, want 0", len(ev))
	}
	if f := inj.Factor(); f != 1 {
		t.Errorf("factor before degrade = %g, want 1", f)
	}
	ev := inj.ApplyLayer(2)
	if len(ev) != 2 || ev[0].Kind != BankFail || ev[1].Kind != BankTransient {
		t.Errorf("layer 2 events = %+v, want bank-fail then bank-transient", ev)
	}
	// Skipping a layer still fires its events at the next boundary.
	ev = inj.ApplyLayer(4)
	if len(ev) != 0 {
		t.Errorf("layer 4 bank events = %+v, want none (degrade only)", ev)
	}
	if f := inj.Factor(); f != 0.5 {
		t.Errorf("factor after degrade = %g, want 0.5", f)
	}
	ev = inj.ApplyLayer(5)
	if len(ev) != 1 || ev[0].Count != 2 {
		t.Errorf("layer 5 events = %+v, want one 2-bank failure", ev)
	}
	if inj.Pending() != 0 {
		t.Errorf("pending = %d, want 0", inj.Pending())
	}
	if inj.Injected() != 4 {
		t.Errorf("injected = %d, want 4", inj.Injected())
	}
}

func TestNilInjector(t *testing.T) {
	var inj *Injector
	if inj.TransferFails() || inj.Factor() != 1 || inj.ApplyLayer(3) != nil || inj.Pick(5) != 0 {
		t.Error("nil injector must be inert")
	}
	empty := NewInjector(nil)
	if empty.TransferFails() || empty.Factor() != 1 || empty.ApplyLayer(3) != nil {
		t.Error("nil-spec injector must be inert")
	}
}

func TestUniformBankFailures(t *testing.T) {
	s := UniformBankFailures(42, 8, 2, 8)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, e := range s.Events {
		if e.Kind != BankFail {
			t.Errorf("unexpected kind %v", e.Kind)
		}
		total += e.Count
	}
	if total != 8 {
		t.Errorf("total failed banks = %d, want 8", total)
	}
	if s.Events[0].Layer != 2 || s.Events[1].Layer != 8 {
		t.Errorf("trigger layers = %d, %d; want 2, 8", s.Events[0].Layer, s.Events[1].Layer)
	}
	if zero := UniformBankFailures(42, 0, 2, 8); !zero.Empty() {
		t.Errorf("n=0 plan should be empty, got %+v", zero)
	}
	if one := UniformBankFailures(42, 1, 2, 8); len(one.Events) != 1 || one.Events[0].Count != 1 {
		t.Errorf("n=1 plan = %+v, want single event", one)
	}
}

func TestRunError(t *testing.T) {
	cause := errors.New("bank 7 still owned")
	re := Errf(Fatal, CheckBankLeak, "conv4", "post-run leak: %w", cause)
	if !errors.Is(re, cause) {
		t.Error("RunError must unwrap to its cause")
	}
	got, ok := AsRunError(fmt_wrap(re))
	if !ok || got.Check != CheckBankLeak || got.Severity != Fatal {
		t.Errorf("AsRunError = %+v, %v", got, ok)
	}
	msg := re.Error()
	for _, want := range []string{"fatal", CheckBankLeak, "conv4", "bank 7"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error message %q missing %q", msg, want)
		}
	}
	if _, ok := AsRunError(errors.New("plain")); ok {
		t.Error("plain error must not convert to RunError")
	}
}

// fmt_wrap adds one layer of %w wrapping.
func fmt_wrap(err error) error { return errors.Join(errors.New("outer"), err) }

func TestWatchdog(t *testing.T) {
	var w Watchdog
	if w.Attempts() != DefaultMaxDMAAttempts {
		t.Errorf("default attempts = %d, want %d", w.Attempts(), DefaultMaxDMAAttempts)
	}
	if err := w.CheckLayer("conv1", 1<<40); err != nil {
		t.Errorf("disabled watchdog flagged a layer: %v", err)
	}
	w = Watchdog{MaxDMAAttempts: 3, MaxLayerCycles: 1000}
	if w.Attempts() != 3 {
		t.Errorf("attempts = %d, want 3", w.Attempts())
	}
	if err := w.CheckLayer("conv1", 1000); err != nil {
		t.Errorf("at-bound layer flagged: %v", err)
	}
	err := w.CheckLayer("conv1", 1001)
	if err == nil {
		t.Fatal("over-bound layer not flagged")
	}
	if err.Check != CheckLiveness || err.Severity != Fatal {
		t.Errorf("liveness error = %+v", err)
	}
}

func TestValidateBounds(t *testing.T) {
	var nilSpec *Spec
	if err := nilSpec.Validate(); err != nil {
		t.Errorf("nil spec must validate: %v", err)
	}
	s := &Spec{Events: []Event{{Kind: Kind(99), Count: 1}}}
	if err := s.Validate(); err == nil {
		t.Error("unknown kind must fail validation")
	}
	s = &Spec{Events: []Event{{Kind: BankFail, Banks: make([]int, maxEventBanks+1)}}}
	if err := s.Validate(); err == nil {
		t.Error("oversized bank list must fail validation")
	}
}
