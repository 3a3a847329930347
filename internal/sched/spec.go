// Package sched is the multi-tenant scheduling simulator: N request
// streams — each a model-zoo network with a seeded arrival process —
// time-share one accelerator's bank pool, interleaved at layer
// granularity through the resumable core.Run API. The scheduler is
// fully deterministic: the same Spec (seed included) always produces
// byte-identical per-stream statistics.
//
// The physical model is the paper's own mechanism turned around:
// because logical buffers are composed at run time from a shared
// physical SRAM bank pool, nothing in the hardware ties the pool to a
// single network. A preempted tenant's live logical buffers are torn
// down P5-style — resident bytes without an up-to-date DRAM copy are
// spilled — and rebuilt on resume, with the re-load traffic charged to
// the preempted stream. Suspend/resume costs are accounted separately
// from each run's own traffic, so per-stream results always reconcile
// exactly against the single-tenant baseline.
package sched

import (
	"errors"
	"fmt"

	"shortcutmining/internal/clause"
	"shortcutmining/internal/compress"
	"shortcutmining/internal/core"
	"shortcutmining/internal/noc"
)

// Policy selects how co-resident runs share the accelerator.
type Policy int

const (
	// FCFS runs each request to completion in arrival order — no
	// preemption, the single-tenant baseline with queueing.
	FCFS Policy = iota
	// RoundRobin gives each resident run a quantum of layers, then
	// suspends it (spilling its working set) and rotates.
	RoundRobin
	// Priority preempts at every layer boundary in favor of the
	// highest-priority runnable request (strictly higher priority than
	// the current tenant; ties never preempt).
	Priority
)

// String implements fmt.Stringer in the grammar's vocabulary.
func (p Policy) String() string {
	switch p {
	case FCFS:
		return "fcfs"
	case RoundRobin:
		return "rr"
	case Priority:
		return "prio"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy reads the grammar's policy names.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fcfs":
		return FCFS, nil
	case "rr", "round-robin":
		return RoundRobin, nil
	case "prio", "priority":
		return Priority, nil
	}
	return FCFS, fmt.Errorf("sched: unknown policy %q (want fcfs, rr, prio)", s)
}

// StreamSpec describes one request stream: which network, how many
// requests, and the arrival process.
type StreamSpec struct {
	// Name labels the stream in stats and metrics; defaults to the
	// network name (deduplicated with a #i suffix).
	Name string `json:"name,omitempty"`
	// Network is a model-zoo network name.
	Network string `json:"network"`
	// Strategy is the buffer-management design point of this stream's
	// runs (default SCM).
	Strategy core.Strategy `json:"strategy"`
	// Requests is how many inferences the stream submits (default 1).
	Requests int `json:"requests"`
	// GapCycles separates consecutive arrivals; 0 submits everything
	// at StartCycles (a burst).
	GapCycles int64 `json:"gap_cycles,omitempty"`
	// StartCycles offsets the stream's first arrival.
	StartCycles int64 `json:"start_cycles,omitempty"`
	// Poisson replaces the fixed gap with seeded exponential gaps of
	// mean GapCycles.
	Poisson bool `json:"poisson,omitempty"`
	// Priority orders streams under the prio policy (higher wins).
	Priority int `json:"priority,omitempty"`
	// MinBanks overrides the run's computed minimum bank demand for
	// admission (models a carve-out reservation). Zero = computed.
	MinBanks int `json:"min_banks,omitempty"`
}

// Spec is a complete multi-tenant scheduling scenario.
type Spec struct {
	// Seed drives every random choice (Poisson arrival draws). The
	// same spec always produces the same schedule.
	Seed int64 `json:"seed"`
	// Policy selects the time-sharing discipline (default FCFS).
	Policy Policy `json:"policy"`
	// QuantumLayers is the round-robin quantum (default 8).
	QuantumLayers int `json:"quantum_layers,omitempty"`
	// MaxResident bounds runs launched but unfinished (each resident
	// run owns a spill region in DRAM); 0 = unlimited.
	MaxResident int `json:"max_resident,omitempty"`
	// Streams are the co-resident request streams.
	Streams []StreamSpec `json:"streams"`

	// Compress applies an interlayer feature-map codec at every chip's
	// DRAM boundary (and, under Chips > 1, to interconnect handoffs).
	// Nil means uncompressed. Every stream shares the one codec: the
	// codec engine sits at the memory controller, not per tenant.
	Compress *compress.Config `json:"compress,omitempty"`

	// Chips shards the scenario across N simulated accelerators
	// (internal/cluster), each with its own bank pool, connected by a
	// contended interconnect. 0 or 1 = single chip (this package).
	Chips int `json:"chips,omitempty"`
	// Topology wires the chips when Chips > 1: ring | mesh | all
	// (default ring).
	Topology string `json:"topology,omitempty"`
	// Placement maps layers to chips when Chips > 1: hash | leastload |
	// affinity (default affinity).
	Placement string `json:"placement,omitempty"`
	// LinkGBps / HopLatency tune the interconnect links; zero takes
	// the noc package defaults.
	LinkGBps   float64 `json:"link_gbps,omitempty"`
	HopLatency int64   `json:"hop_latency,omitempty"`
}

// maxSpecRequests bounds the total request count so a malformed spec
// cannot make the scheduler loop effectively forever.
const maxSpecRequests = 1 << 20

// DefaultQuantum is the round-robin quantum when the spec omits one.
const DefaultQuantum = 8

// Validate checks the scenario before the scheduler accepts it.
func (s *Spec) Validate() error {
	if s == nil || len(s.Streams) == 0 {
		return fmt.Errorf("sched: spec has no streams")
	}
	switch s.Policy {
	case FCFS, RoundRobin, Priority:
	default:
		return fmt.Errorf("sched: unknown policy %d", int(s.Policy))
	}
	if s.QuantumLayers < 0 {
		return fmt.Errorf("sched: negative quantum %d", s.QuantumLayers)
	}
	if s.MaxResident < 0 {
		return fmt.Errorf("sched: negative max-resident %d", s.MaxResident)
	}
	if err := s.validateCluster(); err != nil {
		return err
	}
	if err := s.Compress.Validate(); err != nil {
		return err
	}
	total := 0
	for i, st := range s.Streams {
		if st.Network == "" {
			return fmt.Errorf("sched: stream %d has no network", i)
		}
		if st.Requests <= 0 {
			return fmt.Errorf("sched: stream %d (%s) has %d requests", i, st.Network, st.Requests)
		}
		if st.GapCycles < 0 || st.StartCycles < 0 {
			return fmt.Errorf("sched: stream %d (%s) has a negative arrival parameter", i, st.Network)
		}
		if st.MinBanks < 0 {
			return fmt.Errorf("sched: stream %d (%s) has negative min-banks", i, st.Network)
		}
		total += st.Requests
	}
	if total > maxSpecRequests {
		return fmt.Errorf("sched: %d total requests (max %d)", total, maxSpecRequests)
	}
	return nil
}

// validateCluster checks the multi-chip clauses. Topology names defer
// to the authoritative noc parser; the placement vocabulary must stay
// in sync with cluster.ParsePlacement (cluster imports sched, so its
// parser cannot be called from here — a cluster unit test pins the
// two equal).
func (s *Spec) validateCluster() error {
	if s.Chips < 0 {
		return fmt.Errorf("sched: negative chips %d", s.Chips)
	}
	if s.Chips > noc.MaxChips {
		return fmt.Errorf("sched: %d chips (max %d)", s.Chips, noc.MaxChips)
	}
	if s.Topology != "" {
		if _, err := noc.ParseTopology(s.Topology); err != nil {
			return err
		}
	}
	switch s.Placement {
	case "", "hash", "leastload", "affinity":
	default:
		return fmt.Errorf("sched: unknown placement %q (want hash, leastload, affinity)", s.Placement)
	}
	if s.LinkGBps < 0 {
		return fmt.Errorf("sched: negative link bandwidth %g", s.LinkGBps)
	}
	if s.HopLatency < 0 {
		return fmt.Errorf("sched: negative hop latency %d", s.HopLatency)
	}
	if s.Chips <= 1 && (s.Topology != "" || s.Placement != "" || s.LinkGBps != 0 || s.HopLatency != 0) {
		return fmt.Errorf("sched: topo/place/linkgbps/hoplat require chips>1")
	}
	return nil
}

// String renders the spec in the grammar ParseSpec reads, so a spec
// round-trips through the CLI flag.
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	var w clause.Writer
	w.Set("seed", s.Seed).Set("policy", s.Policy).
		SetIf(s.QuantumLayers > 0, "quantum", s.QuantumLayers).
		SetIf(s.MaxResident > 0, "maxresident", s.MaxResident).
		SetIf(s.Compress != nil, "compress", s.Compress)
	if s.Chips > 1 {
		w.Set("chips", s.Chips).
			SetIf(s.Topology != "", "topo", s.Topology).
			SetIf(s.Placement != "", "place", s.Placement).
			SetIf(s.LinkGBps > 0, "linkgbps", s.LinkGBps).
			SetIf(s.HopLatency > 0, "hoplat", s.HopLatency)
	}
	for _, st := range s.Streams {
		w.Set("stream", st.Network).Param("n", st.Requests).
			ParamIf(st.GapCycles > 0, "gap", st.GapCycles).
			ParamIf(st.StartCycles > 0, "start", st.StartCycles).
			ParamIf(st.Poisson, "poisson", nil).
			ParamIf(st.Priority != 0, "prio", st.Priority).
			ParamIf(st.Strategy != core.SCM, "strategy", st.Strategy).
			ParamIf(st.MinBanks > 0, "banks", st.MinBanks).
			ParamIf(st.Name != "", "name", st.Name)
	}
	return w.String()
}

// grammar is the scheduling dialect: stream params take bare flags
// ("poisson") and are read exactly as written.
var grammar = clause.Grammar{Name: "sched", Params: clause.Flags}

// ParseSpec reads the compact scheduling grammar used by the -spec CLI
// flag and the /v1/schedule and /v1/cluster endpoints (syntax in
// internal/clause): semicolon-separated key=value clauses.
//
//	seed=42                      RNG seed (default 1)
//	policy=rr                    fcfs | rr | prio (default fcfs)
//	quantum=4                    round-robin quantum in layers (default 8)
//	maxresident=2                bound on launched-but-unfinished runs
//	compress=zvc:sparsity=0.5    interlayer feature-map codec (compress.ParseSpec)
//	chips=3                      shard across 3 chips (internal/cluster)
//	topo=mesh                    interconnect wiring: ring | mesh | all
//	place=affinity               layer placement: hash | leastload | affinity
//	linkgbps=16                  per-link bandwidth (GB/s)
//	hoplat=64                    per-hop link latency (cycles)
//	stream=resnet34:n=8,gap=2000000          8 requests, fixed inter-arrival gap
//	stream=squeezenet:n=4,gap=500000,poisson seeded exponential gaps, mean 500000
//	stream=resnet50:n=2,prio=3,strategy=baseline,banks=10,start=100,name=vip
//
// Example: "seed=7;policy=prio;stream=resnet34:n=4,gap=1000000;stream=squeezenet:n=6,gap=300000,prio=2".
// The returned spec is validated; malformed input yields an error,
// never a panic.
func ParseSpec(s string) (*Spec, error) {
	spec := &Spec{Seed: 1}
	err := grammar.Parse(s, func(c *clause.Clause) error {
		switch k := c.Key; k {
		case "seed":
			return c.Int64(k, &spec.Seed)
		case "policy":
			p, err := ParsePolicy(c.Value)
			spec.Policy = p
			return err
		case "quantum":
			return c.Int(k, &spec.QuantumLayers)
		case "maxresident":
			return c.Int(k, &spec.MaxResident)
		case "compress":
			cc, err := compress.ParseSpec(c.Value)
			spec.Compress = cc
			return err
		case "chips":
			return c.Int(k, &spec.Chips)
		case "topo":
			spec.Topology = c.Value
		case "place":
			spec.Placement = c.Value
		case "linkgbps":
			return c.Float(k, &spec.LinkGBps)
		case "hoplat":
			return c.Int64(k, &spec.HopLatency)
		case "stream":
			st, err := parseStream(c.Value)
			spec.Streams = append(spec.Streams, st)
			return err
		default:
			return c.Errorf("unknown key=value clause (want seed=, policy=, quantum=, maxresident=, compress=, chips=, topo=, place=, linkgbps=, hoplat=, stream=)")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// parseStream reads a "network:k=v,k=v,flag" stream clause.
func parseStream(s string) (StreamSpec, error) {
	c, err := grammar.ParseOne(s)
	if err != nil {
		return StreamSpec{}, err
	}
	st := StreamSpec{Network: c.Name, Strategy: core.SCM, Requests: 1, Poisson: c.Flag("poisson")}
	if st.Network == "" {
		return st, c.Errorf("stream has no network")
	}
	return st, errors.Join(
		c.Int("n", &st.Requests),
		c.Int64("gap", &st.GapCycles),
		c.Int64("start", &st.StartCycles),
		c.Int("prio", &st.Priority),
		c.Int("banks", &st.MinBanks),
		c.Func("strategy", func(v string) (err error) { st.Strategy, err = core.ParseStrategy(v); return err }),
		c.Str("name", &st.Name),
		c.Unread(),
	)
}

// streamNames returns the display name of every stream, deduplicated
// deterministically: unnamed streams take their network name, and
// collisions gain a #i suffix in spec order.
func (s *Spec) streamNames() []string {
	names := make([]string, len(s.Streams))
	seen := map[string]int{}
	for i, st := range s.Streams {
		name := st.Name
		if name == "" {
			name = st.Network
		}
		seen[name]++
		if n := seen[name]; n > 1 {
			name = fmt.Sprintf("%s#%d", name, n)
		}
		names[i] = name
	}
	return names
}
