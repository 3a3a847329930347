package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// A phase's throughput is the median of its per-window rates over
// windowSeconds windows, and each latency percentile the median of the
// percentile taken over blocks of latencyBlock consecutive ops of one
// caller, so a burst of neighbour load on a shared host moves one
// window or block, not the figure. A block's p99 has ten samples
// beyond it. Lanes keep only these per-window and per-block
// aggregates: the benchmark's own live heap stays the same size for
// the whole run, so it does not slowly change the garbage collector's
// pace (and the throughput) of the program it shares a process with.
const (
	windowSeconds = 0.5
	latencyBlock  = 1000
)

// phase is one timed window of a run. Each caller goroutine owns a
// lane and tallies into it without locks; the lanes are merged after
// the callers have returned.
type phase struct {
	dur time.Duration
	tr  *tracer // nil: untraced

	start time.Time
	rt0   rtSample
	rt1   rtSample

	mu    sync.Mutex
	lanes []*lane // guarded by mu

	// extra holds per-layer figures a workload computes itself
	// (cache, journal and job-view statistics), keyed by metric name.
	extra map[string]float64
}

// lane is one caller's tally.
type lane struct {
	id        int
	attempted int64
	failed    int64
	rejected  int64 // refused with 429
	failures  []string
	completed int64
	windows   []window
	// block collects the current block's latencies (ms); p50s and p99s
	// hold the percentiles of the blocks already closed.
	block      []float64
	p50s, p99s []float64
	model      modelSum
}

// window aggregates one lane's completions in one throughput window:
// all ops, the instants of the first and last completion, and how many
// ops completed at the first one (a sweep completes many at once).
type window struct {
	ops, firstOps int64
	first, last   time.Duration
}

// modelSum accumulates the simulated (model) statistics of completed
// ops. They are deterministic per op.
type modelSum struct {
	ops                                       int64
	fmapBytes, cycles, recycled, roleSwitches int64
	peakBanks                                 int64
}

func (m *modelSum) add(o modelSum) {
	m.ops += o.ops
	m.fmapBytes += o.fmapBytes
	m.cycles += o.cycles
	m.recycled += o.recycled
	m.roleSwitches += o.roleSwitches
	m.peakBanks += o.peakBanks
}

func (m modelSum) perOp(v int64) float64 {
	if m.ops == 0 {
		return 0
	}
	return float64(v) / float64(m.ops)
}

const maxFailureMessages = 5

func newPhase(dur time.Duration, tr *tracer) *phase {
	p := &phase{dur: dur, tr: tr, extra: map[string]float64{}}
	p.rt0 = readRuntime()
	p.start = time.Now()
	return p
}

// deadline is when callers stop starting new ops.
func (p *phase) deadline() time.Time { return p.start.Add(p.dur) }

func (p *phase) newLane() *lane {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := &lane{
		id:      len(p.lanes),
		windows: make([]window, p.numWindows()),
		block:   make([]float64, 0, latencyBlock),
	}
	p.lanes = append(p.lanes, l)
	return l
}

// numWindows is the number of throughput windows in the phase.
func (p *phase) numWindows() int {
	return max(1, int(math.Round(p.dur.Seconds()/windowSeconds)))
}

// finish stamps the end of the timed window and closes each lane's
// last latency block; call it after every caller has returned and
// before any verification work. A last block shorter than half a block
// is dropped unless it is the lane's only one.
func (p *phase) finish() {
	p.rt1 = readRuntime()
	for _, l := range p.lanes {
		if len(l.block) >= latencyBlock/2 || (len(l.block) > 0 && len(l.p50s) == 0) {
			l.closeBlock()
		}
	}
}

func (l *lane) fail(format string, args ...any) {
	l.failed++
	if len(l.failures) < maxFailureMessages {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

// miss records an op that produced no reply (a transport error or a
// refusal): it is attempted, failed, and misses every latency limit.
func (l *lane) miss(format string, args ...any) {
	l.attempted++
	l.latency(math.Inf(1))
	l.fail(format, args...)
}

// complete records n ops finished at t, their shared latency, and
// counts them as attempted.
func (l *lane) complete(start, t time.Time, ph *phase, n int) {
	l.attempted += int64(n)
	l.completed += int64(n)
	at := t.Sub(ph.start)
	if w := int(at / (ph.dur / time.Duration(len(l.windows)))); w < len(l.windows) {
		win := &l.windows[w]
		if win.ops == 0 {
			win.first, win.firstOps = at, int64(n)
		}
		win.ops += int64(n)
		win.last = at
	}
	l.latency(float64(t.Sub(start)) / float64(time.Millisecond))
}

func (l *lane) latency(ms float64) {
	l.block = append(l.block, ms)
	if len(l.block) == latencyBlock {
		l.closeBlock()
	}
}

func (l *lane) closeBlock() {
	l.p50s = append(l.p50s, quantile(l.block, 0.50))
	l.p99s = append(l.p99s, quantile(l.block, 0.99))
	l.block = l.block[:0]
}

// totals merges the lanes.
func (p *phase) totals() (attempted, failed int64, failures []string, model modelSum) {
	for _, l := range p.lanes {
		attempted += l.attempted
		failed += l.failed
		failures = append(failures, l.failures...)
		model.add(l.model)
	}
	return
}

// completed counts the ops whose completion the lanes recorded.
func (p *phase) completed() int64 {
	var n int64
	for _, l := range p.lanes {
		n += l.completed
	}
	return n
}

// windowRates are the completion rates of the phase's fixed windows;
// the phase's throughput is their median. A window's rate is the ops
// completed after its first completion divided by the time from its
// first to its last completion, which does not round to whole ops per
// window. Windows cover [0, dur); completions after the deadline (the
// ops in flight when it passed) count as attempted but fall outside.
func (p *phase) windowRates() []float64 {
	var rates []float64
	for w := 0; w < p.numWindows(); w++ {
		var merged window
		for _, l := range p.lanes {
			lw := l.windows[w]
			switch {
			case lw.ops == 0:
				continue
			case merged.ops == 0 || lw.first < merged.first:
				merged.first, merged.firstOps = lw.first, lw.firstOps
			}
			merged.ops += lw.ops
			merged.last = max(merged.last, lw.last)
		}
		if span := (merged.last - merged.first).Seconds(); span > 0 {
			rates = append(rates, float64(merged.ops-merged.firstOps)/span)
		}
	}
	return rates
}

func (p *phase) throughput() float64 { return median(p.windowRates()) }

// blockQuantiles are the q-quantile (0.50 or 0.99) latencies of every
// lane's closed blocks; the reported percentile is their median.
func (p *phase) blockQuantiles(q float64) []float64 {
	var qs []float64
	for _, l := range p.lanes {
		if q == 0.50 {
			qs = append(qs, l.p50s...)
		} else {
			qs = append(qs, l.p99s...)
		}
	}
	return qs
}

// endToEnd derives the end-to-end metrics of an untraced phase.
func (p *phase) endToEnd() *result {
	attempted, failed, failures, model := p.totals()
	r := newResult(attempted, failed, failures)
	ops := float64(p.completed())
	if ops == 0 {
		ops = 1
	}
	r.set("throughput_per_s", p.throughput(), "1/s")
	r.set("latency_p50_ms", median(p.blockQuantiles(0.50)), "ms")
	r.set("allocs_per_op", float64(p.rt1.allocObjects-p.rt0.allocObjects)/ops, "count")
	r.set("alloc_kb_per_op", float64(p.rt1.allocBytes-p.rt0.allocBytes)/1024/ops, "KiB")
	r.set("model_fmap_mb", model.perOp(model.fmapBytes)/1e6, "MB")
	r.set("model_mcycles", model.perOp(model.cycles)/1e6, "Mcycles")
	r.blocks = len(p.blockQuantiles(0.50))
	return r
}

// rtSample is one read of the runtime counters the benchmark reports.
type rtSample struct {
	allocObjects, allocBytes, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// allocCounter reads the cumulative heap allocation count through
// runtime/metrics, which needs no stop-the-world (unlike
// runtime.ReadMemStats). The runtime folds allocations into the
// counter when a goroutine's cached span is refilled, so a single
// short interval can read low or high; averaged over many intervals
// the count is exact. Each goroutine needs its own counter.
type allocCounter struct{ s [1]metrics.Sample }

func newAllocCounter() *allocCounter {
	c := &allocCounter{}
	c.s[0].Name = "/gc/heap/allocs:objects"
	return c
}

func (c *allocCounter) read() uint64 {
	metrics.Read(c.s[:])
	return c.s[0].Value.Uint64()
}

// quantile is the nearest-rank q-quantile of vals (0 when empty).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value of vals, averaging the two middle values
// of an even count (0 when empty).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// probeSink keeps the probe loop from being optimised away.
var probeSink uint64

// probeMops times a fixed allocation-free integer loop and returns
// million iterations per second. It exercises no program code: read
// beside the end-to-end figures it tells a slower host apart from a
// slower program.
func probeMops() float64 {
	const iters = 20_000_000
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	el := time.Since(start)
	probeSink += x
	return iters / el.Seconds() / 1e6
}
