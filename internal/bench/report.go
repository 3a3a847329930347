// Package bench is the performance observability harness: a
// deterministic-workload benchmark over the simulator hot path
// (cycles/sec, sweeps/sec) plus a self-driving closed-loop load
// generator that exercises an in-process serve engine end to end and
// records the latency distribution the way a client would see it.
//
// The workload is a pure function of the seed — two runs with the same
// seed issue byte-identical request sequences, so BENCH_<n>.json files
// committed across PRs form a comparable performance trajectory (only
// the timings move). The package is exempt from scm-vet's determinism
// check by contract: measuring wall-clock time is its whole job.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"

	"shortcutmining/internal/metrics"
)

// SchemaVersion identifies the Report JSON layout. Consumers must
// reject files with a different version instead of misreading them.
const SchemaVersion = 1

// Report is the schema-versioned result document (BENCH_<n>.json).
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	PR            int    `json:"pr,omitempty"`
	Seed          int64  `json:"seed"`
	Smoke         bool   `json:"smoke,omitempty"`
	Timestamp     string `json:"timestamp,omitempty"` // RFC3339, stamped by the CLI
	Host          Host   `json:"host"`

	Sim   []SimResult  `json:"sim"`
	Sweep *SweepResult `json:"sweep,omitempty"`
	Serve *ServeResult `json:"serve,omitempty"`
}

// Host describes the machine the numbers came from — without it a
// trajectory across commits is uninterpretable.
type Host struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
}

// CurrentHost snapshots the running process's host facts.
func CurrentHost() Host {
	return Host{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
}

// SimResult is the hot-path measurement for one (network, strategy)
// pair: how many simulated cycles and full runs per wall-clock second
// core.Simulate sustains.
type SimResult struct {
	Network         string  `json:"network"`
	Strategy        string  `json:"strategy"`
	Layers          int     `json:"layers"`
	Runs            int     `json:"runs"`
	WallSeconds     float64 `json:"wall_seconds"`
	SimCycles       int64   `json:"sim_cycles"` // per run (deterministic)
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	RunsPerSec      float64 `json:"runs_per_sec"`
}

// SweepResult measures the design-space exploration path: full sweeps
// and individual grid points per second.
type SweepResult struct {
	Network      string  `json:"network"`
	Points       int     `json:"points"`
	Rounds       int     `json:"rounds"`
	Parallel     int     `json:"parallel"`
	WallSeconds  float64 `json:"wall_seconds"`
	SweepsPerSec float64 `json:"sweeps_per_sec"`
	PointsPerSec float64 `json:"points_per_sec"`
}

// Latency is a latency summary in milliseconds.
type Latency struct {
	P50  float64 `json:"p50_ms"`
	P95  float64 `json:"p95_ms"`
	P99  float64 `json:"p99_ms"`
	Mean float64 `json:"mean_ms"`
	Max  float64 `json:"max_ms"`
}

// MixCount is one operation kind's share of the issued load. A sorted
// slice (not a map) keeps the JSON stable across runs.
type MixCount struct {
	Op    string `json:"op"`
	Count int64  `json:"count"`
}

// ServeResult is the end-to-end measurement of the serving stack under
// the closed-loop load generator.
type ServeResult struct {
	Workers     int `json:"workers"`     // engine pool size
	Concurrency int `json:"concurrency"` // closed-loop client workers

	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	Errors    int64 `json:"errors"`
	Rejected  int64 `json:"rejected_429"`

	WallSeconds    float64 `json:"wall_seconds"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	Latency        Latency `json:"latency"`

	Mix []MixCount `json:"mix"`

	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// Validate checks the report's internal consistency — the same checks
// CI runs against a freshly produced smoke file.
func (r *Report) Validate() error {
	if r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("bench: schema_version %d, this tool reads %d", r.SchemaVersion, SchemaVersion)
	}
	if len(r.Sim) == 0 {
		return fmt.Errorf("bench: report has no sim results")
	}
	if r.Host.GoVersion == "" || r.Host.CPUs <= 0 {
		return fmt.Errorf("bench: host facts missing (go_version=%q cpus=%d)", r.Host.GoVersion, r.Host.CPUs)
	}
	for i, s := range r.Sim {
		if s.Network == "" || s.Strategy == "" {
			return fmt.Errorf("bench: sim[%d] missing network or strategy", i)
		}
		if s.Runs <= 0 || s.WallSeconds <= 0 || s.SimCycles <= 0 {
			return fmt.Errorf("bench: sim[%d] %s/%s has non-positive measurements", i, s.Network, s.Strategy)
		}
		if s.SimCyclesPerSec <= 0 || s.RunsPerSec <= 0 {
			return fmt.Errorf("bench: sim[%d] %s/%s has non-positive rates", i, s.Network, s.Strategy)
		}
	}
	if w := r.Sweep; w != nil {
		if w.Points <= 0 || w.Rounds <= 0 || w.WallSeconds <= 0 {
			return fmt.Errorf("bench: sweep has non-positive measurements")
		}
	}
	if s := r.Serve; s != nil {
		if s.Requests != s.Completed+s.Errors+s.Rejected {
			return fmt.Errorf("bench: serve requests=%d != completed+errors+rejected=%d",
				s.Requests, s.Completed+s.Errors+s.Rejected)
		}
		if s.WallSeconds <= 0 || s.Requests <= 0 {
			return fmt.Errorf("bench: serve has non-positive measurements")
		}
		l := s.Latency
		if l.P50 < 0 || l.P50 > l.P95 || l.P95 > l.P99 || l.P99 > l.Max {
			return fmt.Errorf("bench: serve latency quantiles not monotone: p50=%g p95=%g p99=%g max=%g",
				l.P50, l.P95, l.P99, l.Max)
		}
		if s.CacheHitRate < 0 || s.CacheHitRate > 1 {
			return fmt.Errorf("bench: serve cache_hit_rate %g outside [0,1]", s.CacheHitRate)
		}
		var mixTotal int64
		for _, m := range s.Mix {
			mixTotal += m.Count
		}
		if mixTotal != s.Requests {
			return fmt.Errorf("bench: serve mix total %d != requests %d", mixTotal, s.Requests)
		}
	}
	return nil
}

// WriteText renders the report for humans (-format text).
func (r *Report) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "scm-bench report (schema v%d", r.SchemaVersion)
	if r.PR > 0 {
		fmt.Fprintf(&b, ", PR %d", r.PR)
	}
	if r.Smoke {
		b.WriteString(", smoke")
	}
	fmt.Fprintf(&b, ")\nhost: %s %s/%s, %d CPUs\nseed: %d\n",
		r.Host.GoVersion, r.Host.GOOS, r.Host.GOARCH, r.Host.CPUs, r.Seed)
	if r.Timestamp != "" {
		fmt.Fprintf(&b, "when: %s\n", r.Timestamp)
	}

	b.WriteString("\nsimulator hot path (core.Simulate)\n")
	fmt.Fprintf(&b, "  %-20s %-10s %7s %8s %15s %12s\n",
		"network", "strategy", "layers", "runs", "sim-cycles/sec", "runs/sec")
	for _, s := range r.Sim {
		fmt.Fprintf(&b, "  %-20s %-10s %7d %8d %15.3e %12.1f\n",
			s.Network, s.Strategy, s.Layers, s.Runs, s.SimCyclesPerSec, s.RunsPerSec)
	}

	if w2 := r.Sweep; w2 != nil {
		b.WriteString("\ndesign-space sweep (dse.Explore)\n")
		fmt.Fprintf(&b, "  %s: %d points x %d rounds, parallel=%d: %.2f sweeps/sec, %.1f points/sec\n",
			w2.Network, w2.Points, w2.Rounds, w2.Parallel, w2.SweepsPerSec, w2.PointsPerSec)
	}

	if s := r.Serve; s != nil {
		b.WriteString("\nserving stack (closed-loop load generator)\n")
		fmt.Fprintf(&b, "  %d client workers against a %d-worker engine, %.2fs wall\n",
			s.Concurrency, s.Workers, s.WallSeconds)
		fmt.Fprintf(&b, "  %d requests: %d completed, %d errors, %d rejected (429)\n",
			s.Requests, s.Completed, s.Errors, s.Rejected)
		fmt.Fprintf(&b, "  throughput: %.1f req/sec\n", s.RequestsPerSec)
		fmt.Fprintf(&b, "  latency ms: p50=%.3f p95=%.3f p99=%.3f mean=%.3f max=%.3f\n",
			s.Latency.P50, s.Latency.P95, s.Latency.P99, s.Latency.Mean, s.Latency.Max)
		var mix []string
		for _, m := range s.Mix {
			mix = append(mix, fmt.Sprintf("%s=%d", m.Op, m.Count))
		}
		fmt.Fprintf(&b, "  mix: %s\n", strings.Join(mix, " "))
		fmt.Fprintf(&b, "  cache: %d hits / %d misses (hit rate %.1f%%)\n",
			s.CacheHits, s.CacheMisses, 100*s.CacheHitRate)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// summarize reduces raw millisecond samples to a Latency.
func summarize(ms []float64) Latency {
	if len(ms) == 0 {
		return Latency{}
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	return Latency{
		P50:  metrics.NearestRank(s, 0.50),
		P95:  metrics.NearestRank(s, 0.95),
		P99:  metrics.NearestRank(s, 0.99),
		Mean: sum / float64(len(s)),
		Max:  s[len(s)-1],
	}
}
