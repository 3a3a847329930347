package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"sync"
	"time"
)

// maxKeptSpans bounds the spans kept for the trace file; every span
// still feeds the per-layer aggregates. The kept spans, and the
// duration histograms of the span names the benchmark records, are
// allocated when the tracer is created, before either half of a
// --trace 1 run: storage growing during the traced half would enlarge
// the live heap, slow the garbage collector's pace and make tracing
// look faster than no tracing on allocation-heavy workloads.
const maxKeptSpans = 20_000

// spanNames are the names the benchmark records spans under; their
// histograms exist from the start. A name outside the list gets its
// histogram on its first span.
func spanNames() []string {
	names := []string{
		"nn.Build", "core.NewRun", "core.Step.final", "core.Result", "dse.ExploreContext",
		"journal.Open", "serve.NewEngine", "http.Listen",
		"http.POST /v1/simulate", "http.POST /v1/schedule", "serve.Job.Done", "http.GET /v1/jobs",
	}
	for _, k := range stepKinds {
		names = append(names, "core.Step."+k)
	}
	return names
}

// span is one timed call into a layer, made from the benchmark's own
// code. Spans of one op share op; tid is the caller (lane) that made
// the call.
type span struct {
	name  string
	tid   int
	op    int64
	start time.Duration // since the tracer was created
	dur   time.Duration
}

// tracer keeps spans in memory and aggregates their durations (and,
// for Run.Step, allocations) per span name. It is safe for concurrent
// use; the lock is uncontended outside the serve workloads.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	kept     []span                // guarded by mu
	count    int64                 // guarded by mu
	durs     map[string]*histogram // guarded by mu
	allocSum map[string]float64    // guarded by mu
	allocN   map[string]float64    // guarded by mu
}

func newTracer() *tracer {
	t := &tracer{
		t0:       time.Now(),
		kept:     make([]span, 0, maxKeptSpans),
		durs:     map[string]*histogram{},
		allocSum: map[string]float64{},
		allocN:   map[string]float64{},
	}
	for _, n := range spanNames() {
		t.durs[n] = &histogram{}
		t.allocSum[n], t.allocN[n] = 0, 0
	}
	return t
}

// record adds a span from start to end.
func (t *tracer) record(name string, tid int, op int64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count++
	d := end.Sub(start)
	h := t.durs[name]
	if h == nil {
		h = &histogram{}
		t.durs[name] = h
	}
	h.add(d)
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, span{name: name, tid: tid, op: op, start: start.Sub(t.t0), dur: d})
	}
}

// allocs adds one interval's allocation count to name's tally.
func (t *tracer) allocs(name string, n uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.allocSum[name] += float64(n)
	t.allocN[name]++
}

// medianUS is the median duration of name's spans in µs (0 if none),
// to the histogram's resolution.
func (t *tracer) medianUS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h := t.durs[name]; h != nil {
		return h.median().Seconds() * 1e6
	}
	return 0
}

// sumUS is the total duration of name's spans in µs.
func (t *tracer) sumUS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h := t.durs[name]; h != nil {
		return h.sum.Seconds() * 1e6
	}
	return 0
}

// meanAllocs is name's mean allocations per interval (0 if none).
func (t *tracer) meanAllocs(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.allocN[name] == 0 {
		return 0
	}
	return t.allocSum[name] / t.allocN[name]
}

// histogram counts durations in fixed log-linear buckets: exact below
// 2^histSubBits ns, then 2^histSubBits buckets per power of two, so a
// bucket is under 0.8% wide relative to its lower bound. Durations
// from 2^histMaxBits ns (about 18 minutes) up share the last bucket.
// Its size is fixed, so recording never allocates.
type histogram struct {
	n      int64
	sum    time.Duration
	counts [(histMaxBits - histSubBits + 1) << histSubBits]int64
}

const (
	histSubBits = 7
	histMaxBits = 40
)

func bucketOf(d time.Duration) int {
	ns := uint64(max(d, 0))
	if ns < 1<<histSubBits {
		return int(ns)
	}
	ns = min(ns, 1<<histMaxBits-1)
	shift := bits.Len64(ns) - histSubBits - 1 // ns>>shift is in [2^sub, 2^(sub+1))
	return shift<<histSubBits + int(ns>>shift)
}

// bucketMid is the middle of bucket i's range in ns.
func bucketMid(i int) float64 {
	if i < 1<<histSubBits {
		return float64(i)
	}
	shift := i>>histSubBits - 1
	lower := uint64(i-shift<<histSubBits) << shift
	return float64(lower) + float64(uint64(1)<<shift)/2
}

func (h *histogram) add(d time.Duration) {
	h.n++
	h.sum += d
	h.counts[bucketOf(d)]++
}

// median is the middle of the bucket holding the nearest-rank median.
func (h *histogram) median() time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := (h.n + 1) / 2
	var seen int64
	for i, c := range h.counts {
		if seen += c; seen >= rank {
			return time.Duration(bucketMid(i))
		}
	}
	return 0
}

func (t *tracer) total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

func (t *tracer) dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count - int64(len(t.kept))
}

// traceEvent is one entry of the Chrome trace_event "traceEvents"
// array, the format scm-trace -perfetto writes.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeFile writes the kept spans as trace_event JSON: one complete
// ("X") event per span on the track of the caller that made it, with
// the op identifier in args, so one op's spans line up under it.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","otherData":`)
	other, err := json.Marshal(map[string]any{"spans": t.count, "kept": len(t.kept), "clock": "wall"})
	if err != nil {
		return err
	}
	w.Write(other)
	fmt.Fprint(w, `,"traceEvents":[`)
	enc := json.NewEncoder(w)
	first := true
	emit := func(e traceEvent) error {
		if !first {
			w.WriteByte(',')
		}
		first = false
		return enc.Encode(e)
	}
	if err := emit(traceEvent{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench"}}); err != nil {
		return err
	}
	for _, s := range t.kept {
		e := traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid + 1, Cat: "layer",
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.dur) / float64(time.Microsecond),
			Args: map[string]any{"op": s.op},
		}
		if err := emit(e); err != nil {
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
