// Package metrics is the simulator's lightweight observability
// registry: named counters, gauges, and fixed-bucket histograms with
// optional label dimensions, rendered as a Prometheus-style text page
// or captured as a JSON snapshot embedded in RunStats.
//
// The design goal is near-zero overhead when observability is off: a
// nil *Registry hands out nil instruments, and every instrument method
// is nil-receiver safe, so instrumented call sites need no branches.
// Hot paths hold on to the instrument pointers they need (one map
// lookup at registration, none per update).
//
// A Registry and its instruments are safe for concurrent use: the
// serving subsystem shares one server-wide registry across request
// goroutines. Counters are lock-free atomics; gauges and histograms
// take a short per-instrument lock. Per-run registries (one per
// simulated accelerator instance, the recommended isolation) pay only
// uncontended-synchronization cost.
package metrics

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension of a series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing integer, updated atomically.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d (negative deltas are ignored; a
// counter only goes up).
func (c *Counter) Add(d int64) {
	if c == nil || d <= 0 {
		return
	}
	c.v.Add(d)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that also remembers its high-water
// mark (the pool-occupancy peaks the experiments care about).
type Gauge struct {
	mu      sync.Mutex
	v, peak float64 // guarded by mu
	set     bool    // guarded by mu
}

// Set records the current value and updates the peak.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.setLocked(v)
	g.mu.Unlock()
}

func (g *Gauge) setLocked(v float64) {
	g.v = v
	if !g.set || v > g.peak {
		g.peak = v
	}
	g.set = true
}

// SetMax ratchets the gauge: the value only moves up. High-water-mark
// instruments use this so the exposed value IS the peak.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if !g.set || v > g.v {
		g.setLocked(v)
	}
	g.mu.Unlock()
}

// Add shifts the gauge by d (instantaneous occupancy instruments like
// queue depth count up and down).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.setLocked(g.v + d)
	g.mu.Unlock()
}

// Value returns the last set value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Peak returns the largest value ever set.
func (g *Gauge) Peak() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// RetainedSamples is how many raw observations a histogram keeps
// verbatim. While the sample count stays at or below this cap,
// quantiles are exact (nearest-rank over the retained values); beyond
// it the retained prefix is no longer representative and Quantile
// falls back to bucket interpolation. Short series — a load-generator
// run, a small scheduling scenario — therefore report exact p50/p95/
// p99 instead of bucket-edge approximations.
const RetainedSamples = 512

// Histogram is a fixed-bucket distribution. Bounds are inclusive upper
// edges in ascending order; an implicit +Inf bucket catches the rest.
// The first RetainedSamples observations are additionally kept raw so
// small-sample quantiles come out exact.
type Histogram struct {
	bounds  []float64 // immutable after construction
	mu      sync.Mutex
	counts  []int64   // guarded by mu: len(bounds)+1, non-cumulative
	sum     float64   // guarded by mu
	n       int64     // guarded by mu
	samples []float64 // guarded by mu: first RetainedSamples raw values
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	if len(h.samples) < RetainedSamples {
		h.samples = append(h.samples, v)
	}
	h.mu.Unlock()
}

// Quantile returns the q-quantile (0 < q <= 1) of the observed
// distribution. While every sample is still retained (n <=
// RetainedSamples) the result is the exact nearest-rank value; after
// that it is linearly interpolated within the covering bucket, with
// the +Inf bucket clamped to the largest finite bound. Zero samples
// yield 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

// NearestRank returns the nearest-rank q-quantile of a sorted,
// non-empty sample: the value at rank ceil(q·n), clamped to the
// sample. It is the one percentile rule of the exact histogram path,
// the scheduler's QoS tables and the bench reports.
func NearestRank[T cmp.Ordered](sorted []T, q float64) T {
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if int64(len(h.samples)) == h.n { // every sample retained: exact
		s := append([]float64(nil), h.samples...)
		sort.Float64s(s)
		return NearestRank(s, q)
	}
	// Bucket interpolation: walk to the bucket holding the q-rank,
	// then interpolate linearly between its edges.
	rank := q * float64(h.n)
	var cum int64
	for i, c := range h.counts {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		if i >= len(h.bounds) { // +Inf bucket: clamp to the last finite edge
			if len(h.bounds) == 0 {
				return h.sum / float64(h.n) // no finite edges: mean is the best estimate
			}
			return h.bounds[len(h.bounds)-1]
		}
		hi := h.bounds[i]
		frac := (rank - float64(prev)) / float64(c)
		return lo + (hi-lo)*frac
	}
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return 0
}

// snap returns a coherent copy of the mutable state.
func (h *Histogram) snap() (counts []int64, sum float64, n int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.counts...), h.sum, h.n
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Bounds returns the bucket upper edges (a copy).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// BucketCounts returns the per-bucket (non-cumulative) counts,
// including the final +Inf bucket (a copy).
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	counts, _, _ := h.snap()
	return counts
}

// kind discriminates instrument families.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "unknown"
}

// series is one labeled instance of a family. The counter/gauge value
// and the single-label case live inline so registering a series is one
// allocation — per-layer families create hundreds per run.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram

	one [1]Label
	cv  Counter
	gv  Gauge
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   kind
	bounds []float64 // histogram families only
	order  []string  // series keys in registration order
	byKey  map[string]*series
}

// Registry owns the instruments of one simulation run (or, in the
// serving subsystem, of one server). The registration maps are guarded
// by mu; the instruments themselves synchronize their own updates, so
// hot-path Add/Set/Observe calls never touch the registry lock.
type Registry struct {
	mu       sync.Mutex
	order    []string           // guarded by mu
	families map[string]*family // guarded by mu
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Enabled reports whether the registry records anything (false for the
// nil registry the disabled path carries).
func (r *Registry) Enabled() bool { return r != nil }

// labelKey canonicalizes a label set (sorted by key) so the same
// series is returned regardless of argument order.
func labelKey(labels []Label) string {
	switch len(labels) {
	case 0:
		return ""
	case 1: // the hot-path shape (class=..., layer=..., proc=...)
		return labels[0].Key + "=" + labels[0].Value
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	return sb.String()
}

// lookup returns (creating if needed) the series for name+labels,
// checking family kind consistency. Mistyped registrations are
// programmer errors and panic with a clear message.
func (r *Registry) lookup(name, help string, k kind, bounds []float64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, bounds: bounds, byKey: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != k {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, k))
	}
	key := labelKey(labels)
	s, ok := f.byKey[key]
	if !ok {
		s = &series{}
		if len(labels) == 1 {
			s.one[0] = labels[0]
			s.labels = s.one[:]
		} else if len(labels) > 1 {
			s.labels = append([]Label(nil), labels...)
			sort.Slice(s.labels, func(i, j int) bool { return s.labels[i].Key < s.labels[j].Key })
		}
		switch k {
		case counterKind:
			s.c = &s.cv
		case gaugeKind:
			s.g = &s.gv
		case histogramKind:
			s.h = &Histogram{bounds: f.bounds, counts: make([]int64, len(f.bounds)+1)}
		}
		f.byKey[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns the counter series for name+labels, registering it
// on first use. Safe on a nil registry (returns a nil no-op counter).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, counterKind, nil, labels).c
}

// Gauge returns the gauge series for name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, gaugeKind, nil, labels).g
}

// Histogram returns the histogram series for name+labels. The bounds
// of the first registration win for the whole family; they must be
// ascending.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s bounds not ascending: %v", name, bounds))
		}
	}
	return r.lookup(name, help, histogramKind, append([]float64(nil), bounds...), labels).h
}

// SumCounter sums every series of a counter family (zero when absent).
// The acceptance checks use it: per-layer cycle attribution must sum
// to RunStats.TotalCycles.
func (r *Registry) SumCounter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok || f.kind != counterKind {
		return 0
	}
	var sum int64
	for _, key := range f.order {
		sum += f.byKey[key].c.Value()
	}
	return sum
}

// escapeLabel escapes a label value for the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// renderLabels formats a label set as {k="v",...}; extra appends
// additional pre-rendered pairs (the histogram le label).
func renderLabels(labels []Label, extra ...string) string {
	if len(labels) == 0 && len(extra) == 0 {
		return ""
	}
	parts := make([]string, 0, len(labels)+len(extra))
	for _, l := range labels {
		parts = append(parts, l.Key+`="`+escapeLabel(l.Value)+`"`)
	}
	parts = append(parts, extra...)
	return "{" + strings.Join(parts, ",") + "}"
}

// formatFloat renders a float the way the exposition format expects.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return formatNum(v)
}

// formatNum formats without trailing zeros ("%g" semantics).
func formatNum(v float64) string { return fmt.Sprintf("%g", v) }

// WriteProm renders the registry in the Prometheus text exposition
// format, families in registration order, series in registration
// order within a family.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.kind); err != nil {
			return err
		}
		for _, key := range f.order {
			s := f.byKey[key]
			var err error
			switch f.kind {
			case counterKind:
				_, err = fmt.Fprintf(w, "%s%s %d\n", name, renderLabels(s.labels), s.c.Value())
			case gaugeKind:
				_, err = fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(s.labels), formatNum(s.g.Value()))
			case histogramKind:
				counts, sum, n := s.h.snap()
				var cum int64
				for i, c := range counts {
					cum += c
					le := "+Inf"
					if i < len(s.h.bounds) {
						le = formatFloat(s.h.bounds[i])
					}
					if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n", name,
						renderLabels(s.labels, fmt.Sprintf("le=%q", le)), cum); err != nil {
						return err
					}
				}
				if _, err = fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(s.labels), formatNum(sum)); err != nil {
					return err
				}
				_, err = fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(s.labels), n)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// CounterSnap is one counter series in a Snapshot.
type CounterSnap struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// GaugeSnap is one gauge series in a Snapshot.
type GaugeSnap struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
	Peak   float64 `json:"peak"`
}

// BucketSnap is one cumulative histogram bucket. LE is rendered as a
// string so the +Inf bucket survives JSON.
type BucketSnap struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramSnap is one histogram series in a Snapshot. P50/P95/P99
// are exact nearest-rank values while the series retained every sample
// (count <= RetainedSamples) and bucket-interpolated estimates beyond
// that — see Histogram.Quantile.
type HistogramSnap struct {
	Name    string       `json:"name"`
	Labels  []Label      `json:"labels,omitempty"`
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	P50     float64      `json:"p50"`
	P95     float64      `json:"p95"`
	P99     float64      `json:"p99"`
	Buckets []BucketSnap `json:"buckets"`
}

// Snapshot is a point-in-time JSON-friendly copy of the registry,
// embedded in RunStats by the observed simulation entry points.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters,omitempty"`
	Gauges     []GaugeSnap     `json:"gauges,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
}

// Snapshot captures the registry. A nil registry yields nil.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := &Snapshot{}
	var nc, ng, nh int
	for _, name := range r.order {
		switch f := r.families[name]; f.kind {
		case counterKind:
			nc += len(f.order)
		case gaugeKind:
			ng += len(f.order)
		case histogramKind:
			nh += len(f.order)
		}
	}
	snap.Counters = make([]CounterSnap, 0, nc)
	snap.Gauges = make([]GaugeSnap, 0, ng)
	snap.Histograms = make([]HistogramSnap, 0, nh)
	for _, name := range r.order {
		f := r.families[name]
		for _, key := range f.order {
			s := f.byKey[key]
			// Label sets are immutable after registration, so the
			// snapshot can share them instead of copying.
			labels := s.labels
			switch f.kind {
			case counterKind:
				snap.Counters = append(snap.Counters, CounterSnap{Name: name, Labels: labels, Value: s.c.Value()})
			case gaugeKind:
				snap.Gauges = append(snap.Gauges, GaugeSnap{Name: name, Labels: labels, Value: s.g.Value(), Peak: s.g.Peak()})
			case histogramKind:
				counts, sum, n := s.h.snap()
				hs := HistogramSnap{Name: name, Labels: labels, Count: n, Sum: sum,
					P50: s.h.Quantile(0.50), P95: s.h.Quantile(0.95), P99: s.h.Quantile(0.99),
					Buckets: make([]BucketSnap, 0, len(counts))}
				var cum int64
				for i, c := range counts {
					cum += c
					le := "+Inf"
					if i < len(s.h.bounds) {
						le = formatFloat(s.h.bounds[i])
					}
					hs.Buckets = append(hs.Buckets, BucketSnap{LE: le, Count: cum})
				}
				snap.Histograms = append(snap.Histograms, hs)
			}
		}
	}
	return snap
}

// ExpBuckets returns n ascending bounds starting at start, each factor
// times the previous — the standard shape for byte-size histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n ascending bounds start, start+step, ...
func LinearBuckets(start, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}
