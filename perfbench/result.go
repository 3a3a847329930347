package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation reports.
type result struct {
	attempted, failed int64
	failures          []string
	blocks            int // latency blocks behind the percentiles
	metrics           map[string]metric
}

func newResult(attempted, failed int64, failures []string) *result {
	return &result{attempted: attempted, failed: failed, failures: failures, metrics: map[string]metric{}}
}

// set records a metric. A value that JSON cannot carry is clamped: an
// infinite latency (a refused request misses every limit) becomes the
// largest float, NaN becomes 0.
func (r *result) set(name string, v float64, unit string) {
	switch {
	case math.IsNaN(v):
		v = 0
	case math.IsInf(v, 1):
		v = math.MaxFloat64
	case math.IsInf(v, -1):
		v = -math.MaxFloat64
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// wire is the JSON object printed as the last stdout line.
func (r *result) wire() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics}
}

// print writes a human-readable summary.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench: attempted %d, failed %d, latency blocks %d\n", r.attempted, r.failed, r.blocks)
	for _, f := range r.failures {
		fmt.Fprintf(w, "perfbench: FAIL %s\n", f)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
