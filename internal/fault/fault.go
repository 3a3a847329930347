// Package fault is the simulator's deterministic fault-injection
// engine. It models the adversity a deployed accelerator meets —
// SRAM banks going bad, DMA transfers failing transiently, the DRAM
// channel losing effective bandwidth — as a seeded, reproducible plan
// that the scheduler in internal/core executes against.
//
// The hardware model behind each fault kind:
//
//   - Bank hard failure (predictive retirement). Error-counting logic
//     flags a bank whose correctable-error rate crossed the retirement
//     threshold. The bank is still readable when flagged, so the
//     controller migrates its contents — to a spare free bank when one
//     exists, otherwise by spilling the tail of the affected logical
//     buffer to DRAM (procedure P5 applied to a shrinking pool) — and
//     then retires the bank from service for the rest of the run.
//   - Bank transient error. A correctable (SECDED) upset: data is
//     repaired in place by the scrub pass; the run pays the scrub
//     cycles but no data is lost.
//   - DMA transient failure. A transfer attempt fails (CRC/ECC retry
//     on the link); the DMA engine re-issues it with exponential
//     backoff. Cycle cost is modeled; payload traffic counters are
//     not inflated (the bytes eventually arrive once).
//   - Bandwidth degradation. The effective feature-map channel
//     bandwidth drops to a fraction of nominal (thermal throttling,
//     refresh storms, a neighbor stealing the bus).
//
// Everything is driven by Spec — either parsed from the compact CLI
// grammar (see ParseSpec) or constructed programmatically — and
// replayed by an Injector whose randomness comes from the spec's seed
// only, so every faulty run is exactly reproducible.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"shortcutmining/internal/clause"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// BankFail is a hard SRAM bank failure: the bank is retired from
	// the pool for the rest of the run (predictive retirement; its
	// contents are migrated first).
	BankFail Kind = iota
	// BankTransient is a correctable SRAM upset: scrub cycles are
	// charged, no data is lost.
	BankTransient
	// DMATransient makes DMA transfer attempts fail with the spec's
	// probability; the DMA engine retries with exponential backoff.
	DMATransient
	// BandwidthDegrade drops the effective feature-map channel
	// bandwidth to Factor times nominal from the trigger layer on.
	BandwidthDegrade
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case BankFail:
		return "bank-fail"
	case BankTransient:
		return "bank-transient"
	case DMATransient:
		return "dma-transient"
	case BandwidthDegrade:
		return "bw-degrade"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault. Bank events fire when the layer with
// index Layer starts executing; events whose layer never executes
// (index past the end of the network) simply never fire.
type Event struct {
	Kind Kind `json:"kind"`
	// Layer is the trigger: the event fires when the layer with this
	// index begins.
	Layer int `json:"layer"`
	// Count is how many banks the event affects (BankFail and
	// BankTransient with randomly chosen victims).
	Count int `json:"count,omitempty"`
	// Banks optionally names explicit victim banks instead of seeded
	// random choice.
	Banks []int `json:"banks,omitempty"`
	// Factor is the bandwidth multiplier of a BandwidthDegrade event,
	// in (0, 1].
	Factor float64 `json:"factor,omitempty"`
}

// Spec is a complete fault plan: the RNG seed, the per-transfer DMA
// failure probability, and the scheduled bank/bandwidth events.
type Spec struct {
	// Seed drives every random choice (victim banks, transfer-failure
	// draws). The same spec always produces the same faulty run.
	Seed int64 `json:"seed"`
	// DropProb is the probability that any single DMA transfer attempt
	// fails and must be retried, in [0, 1).
	DropProb float64 `json:"drop_prob,omitempty"`
	// Events are the scheduled faults, fired at layer boundaries.
	Events []Event `json:"events,omitempty"`
}

// maxEventBanks bounds Count so a malformed spec cannot make the
// executor loop over billions of victims.
const maxEventBanks = 1 << 16

// Validate checks the plan before a simulation accepts it.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if s.DropProb < 0 || s.DropProb >= 1 {
		return fmt.Errorf("fault: drop probability %g outside [0, 1)", s.DropProb)
	}
	for i, e := range s.Events {
		if e.Layer < 0 {
			return fmt.Errorf("fault: event %d (%s) has negative trigger layer %d", i, e.Kind, e.Layer)
		}
		switch e.Kind {
		case BankFail, BankTransient:
			n := e.Count
			if len(e.Banks) > 0 {
				n = len(e.Banks)
			}
			if n <= 0 {
				return fmt.Errorf("fault: event %d (%s) affects no banks", i, e.Kind)
			}
			if n > maxEventBanks {
				return fmt.Errorf("fault: event %d (%s) affects %d banks (max %d)", i, e.Kind, n, maxEventBanks)
			}
			for _, b := range e.Banks {
				if b < 0 {
					return fmt.Errorf("fault: event %d (%s) names negative bank %d", i, e.Kind, b)
				}
			}
		case BandwidthDegrade:
			if e.Factor <= 0 || e.Factor > 1 {
				return fmt.Errorf("fault: event %d (%s) factor %g outside (0, 1]", i, e.Kind, e.Factor)
			}
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// Empty reports whether the spec injects nothing.
func (s *Spec) Empty() bool {
	return s == nil || (s.DropProb == 0 && len(s.Events) == 0)
}

// String renders the spec in the grammar ParseSpec reads, so a spec
// round-trips through the CLI flag.
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	var w clause.Writer
	w.Set("seed", s.Seed)
	if s.DropProb > 0 {
		w.Clause("dma-drop").Param("p", s.DropProb)
	}
	for _, e := range s.Events {
		switch e.Kind {
		case BankFail, BankTransient:
			w.Clause(e.Kind.String()).At(e.Layer).
				ParamIf(len(e.Banks) > 0, "bank", e.Banks).ParamIf(len(e.Banks) == 0, "n", e.Count)
		case BandwidthDegrade:
			w.Clause("bw-degrade").At(e.Layer).Param("factor", e.Factor)
		}
	}
	return w.String()
}

// grammar is the -faults dialect: "bank=7,9" is one comma list.
var grammar = clause.Grammar{Name: "fault", Params: clause.Lists}

// ParseSpec reads the compact fault grammar used by the -faults CLI
// flag (syntax in internal/clause): semicolon-separated clauses, each
// a fault kind with an optional "@layer" trigger and ":key=value"
// parameters.
//
//	seed=42                         RNG seed (default 1)
//	bank-fail@4:n=3                 retire 3 random banks when layer 4 starts
//	bank-fail@4:bank=7,9            retire banks 7 and 9
//	bank-transient@6:n=2            2 correctable upsets at layer 6
//	dma-drop:p=0.05                 every DMA attempt fails with p=0.05
//	bw-degrade@10:factor=0.5        half bandwidth from layer 10 on
//
// Example: "seed=7;bank-fail@4:n=3;dma-drop:p=0.02;bw-degrade@10:factor=0.5".
// A key or an @ trigger the clause does not take is an error. The
// returned spec is validated; malformed input yields an error, never
// a panic.
func ParseSpec(s string) (*Spec, error) {
	spec := &Spec{Seed: 1}
	err := grammar.Parse(s, func(c *clause.Clause) error {
		if c.Key == "seed" {
			return c.Int64("seed", &spec.Seed)
		}
		var err error
		switch c.Name {
		case "bank-fail", "bank-transient":
			ev := Event{Kind: BankFail, Count: 1}
			if c.Name == "bank-transient" {
				ev.Kind = BankTransient
			}
			err = errors.Join(
				c.AtInt(&ev.Layer),
				c.Int("n", &ev.Count),
				c.Func("bank", func(v string) error {
					ev.Banks, ev.Count = ev.Banks[:0], 0
					return clause.Each(v, ",", func(b string) error {
						id, err := strconv.Atoi(b)
						ev.Banks = append(ev.Banks, id)
						return err
					})
				}),
			)
			spec.Events = append(spec.Events, ev)
		case "dma-drop":
			err = errors.Join(c.Need("p"), c.Float("p", &spec.DropProb))
		case "bw-degrade":
			ev := Event{Kind: BandwidthDegrade}
			err = errors.Join(c.AtInt(&ev.Layer), c.Need("factor"), c.Float("factor", &ev.Factor))
			spec.Events = append(spec.Events, ev)
		default:
			return c.Errorf("unknown clause (want seed=, bank-fail, bank-transient, dma-drop, bw-degrade)")
		}
		if err != nil {
			return err
		}
		return c.Unread()
	})
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// UniformBankFailures builds the standard E22 plan: n bank failures
// split across two trigger layers (early and mid-network) so the pool
// shrinks while shortcut data is pinned, exercising relocation and
// P5 spill, all under the given seed.
func UniformBankFailures(seed int64, n, earlyLayer, midLayer int) *Spec {
	s := &Spec{Seed: seed}
	if n <= 0 {
		return s
	}
	first := (n + 1) / 2
	s.Events = append(s.Events, Event{Kind: BankFail, Layer: earlyLayer, Count: first})
	if rest := n - first; rest > 0 {
		s.Events = append(s.Events, Event{Kind: BankFail, Layer: midLayer, Count: rest})
	}
	return s
}

// sortEventsByLayer orders a copy of the events by trigger layer
// (stable: same-layer events keep spec order).
func sortEventsByLayer(events []Event) []Event {
	out := append([]Event(nil), events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}
