package core

import (
	"context"
	"fmt"
	"slices"

	"shortcutmining/internal/compress"
	"shortcutmining/internal/dram"
	"shortcutmining/internal/fault"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sram"
	"shortcutmining/internal/stats"
	"shortcutmining/internal/tiling"
	"shortcutmining/internal/trace"
)

// Simulate executes the network on the platform under the canonical
// feature set of the strategy and returns the run statistics. rec may
// be nil when no trace is wanted.
func Simulate(net *nn.Network, cfg Config, strat Strategy, rec trace.Recorder) (stats.RunStats, error) {
	return SimulateContext(context.Background(), net, cfg, strat, rec)
}

// SimulateContext is Simulate with cancellation: the run checks ctx at
// every layer boundary (the same cadence as the liveness watchdog) and
// returns ctx.Err() — wrapped, so errors.Is sees context.Canceled or
// DeadlineExceeded — as soon as the current layer completes. The
// serving subsystem uses it for job timeouts and graceful drain.
func SimulateContext(ctx context.Context, net *nn.Network, cfg Config, strat Strategy, rec trace.Recorder) (stats.RunStats, error) {
	return SimulateObservedContext(ctx, net, cfg, strat, rec, nil)
}

// SimulateObserved is Simulate with the metrics registry attached: the
// run additionally populates reg with per-layer cycle attribution,
// per-class DRAM counters and burst/utilization histograms, pool
// high-water marks, and procedure hit/miss counters, and embeds a
// snapshot in RunStats.Metrics. reg may be nil (no observation).
func SimulateObserved(net *nn.Network, cfg Config, strat Strategy, rec trace.Recorder, reg *metrics.Registry) (stats.RunStats, error) {
	return SimulateObservedContext(context.Background(), net, cfg, strat, rec, reg)
}

// SimulateObservedContext is SimulateObserved with cancellation (see
// SimulateContext).
func SimulateObservedContext(ctx context.Context, net *nn.Network, cfg Config, strat Strategy, rec trace.Recorder, reg *metrics.Registry) (stats.RunStats, error) {
	run, err := SimulateFeaturesObservedContext(ctx, net, cfg, strat.Features(), rec, reg)
	if err != nil {
		return run, err
	}
	run.Strategy = strat.String()
	return run, nil
}

// SimulateFeatures executes the network with an explicit feature set —
// the ablation entry point (experiment E8). The canonical strategies
// are Simulate's Baseline/FMReuse/SCM.
func SimulateFeatures(net *nn.Network, cfg Config, feat Features, rec trace.Recorder) (stats.RunStats, error) {
	return SimulateFeaturesObserved(net, cfg, feat, rec, nil)
}

// SimulateFeaturesObserved is SimulateFeatures with the metrics
// registry attached (see SimulateObserved).
func SimulateFeaturesObserved(net *nn.Network, cfg Config, feat Features, rec trace.Recorder, reg *metrics.Registry) (stats.RunStats, error) {
	return SimulateFeaturesObservedContext(context.Background(), net, cfg, feat, rec, reg)
}

// SimulateFeaturesObservedContext is the full-control entry point:
// explicit feature set, optional trace recorder and metrics registry,
// and cooperative cancellation through ctx. It is a thin loop over the
// resumable Run API (NewRunFeatures / Step): a run that is never
// suspended produces results bit-identical to the stepping path, which
// is what the multi-tenant scheduler interleaves.
func SimulateFeaturesObservedContext(ctx context.Context, net *nn.Network, cfg Config, feat Features, rec trace.Recorder, reg *metrics.Registry) (stats.RunStats, error) {
	r, err := NewRunFeatures(net, cfg, feat, rec, reg)
	if err != nil {
		return stats.RunStats{}, err
	}
	// Cancellation is cooperative at layer granularity: a canceled
	// job stops before its next layer, leaving no partial-layer
	// state behind (the per-layer watchdog bounds how long one
	// layer can take to reach this check).
	for done := false; !done; {
		if done, err = r.Step(ctx); err != nil {
			return stats.RunStats{}, err
		}
	}
	return r.Result()
}

// featureLabel names an ad-hoc feature set for reports.
func featureLabel(f Features) string {
	switch f {
	case Baseline.Features():
		return Baseline.String()
	case FMReuse.Features():
		return FMReuse.String()
	case SCM.Features():
		return SCM.String()
	}
	s := "custom["
	if f.RoleSwitch {
		s += "P2"
	}
	if f.ShortcutRetention {
		s += "+P3"
	}
	if f.IncrementalRecycle {
		s += "+P4"
	}
	if f.PartialRetention {
		s += "+P5"
	}
	if f.StreamingRecycle {
		s += "+SR"
	}
	return s + "]"
}

type executor struct {
	net  *nn.Network
	cfg  Config
	feat Features
	pool *sram.Pool
	ch   *dram.Channel
	rec  *trace.Stamper // nil when untraced: no event is built
	obs  *observer      // nil when metrics are off
	cp   consumptionPlan
	fn   *funcState // non-nil in functional-verification mode

	// clock is the simulated cycle at which the current layer starts
	// (the cumulative attributed cycles of everything before it);
	// memCursor tracks DMA-span placement within and across layers.
	// Both feed the cycle stamps of trace events.
	clock     int64
	memCursor int64

	// Fault-injection state: the injector replaying Config.Faults, the
	// watchdog bounds, the accumulated fault statistics, the current
	// layer name for error classification, and the fault cycles accrued
	// since the last layer closed (scrubs, migrations, retries —
	// charged to the next layer's cycle count).
	inj              *fault.Injector
	wd               fault.Watchdog
	flt              stats.FaultStats
	curLayer         string
	layerFaultCycles int64

	// Interlayer-compression state: the codec (nil when off), the
	// run-wide encode/decode engine cycle tallies, and the codec cycles
	// accrued since the last layer closed (serialized into that layer's
	// cycle count, like layerFaultCycles).
	comp             *compress.Config
	encCycles        int64
	decCycles        int64
	layerCodecCycles int64

	// residents[p] points into slab once producer p has been placed
	// (see place); recycle is allocOutput's reused operand list.
	residents []*resident
	slab      []resident
	recycle   []recyclable
	run       stats.RunStats
}

// newExecutor validates the platform and the network and builds the
// complete executor state of a run that has executed nothing: pool,
// channel, consumption plan, resident slab and RunStats header. rec
// and reg may be nil (no trace, no metrics); a trace.Nop recorder
// counts as no recorder. Every run constructor goes through here.
func newExecutor(net *nn.Network, cfg Config, feat Features, rec trace.Recorder, reg *metrics.Registry) (*executor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	pool, err := sram.NewPool(cfg.Pool)
	if err != nil {
		return nil, err
	}
	ch, err := dram.NewChannel(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	n := len(net.Layers)
	e := &executor{
		net: net, cfg: cfg, feat: feat, pool: pool, ch: ch,
		cp:        buildConsumptionPlan(net),
		residents: make([]*resident, n),
		slab:      make([]resident, n),
		wd:        fault.Watchdog{MaxDMAAttempts: cfg.DMAMaxAttempts, MaxLayerCycles: cfg.WatchdogLayerCycles},
		run: stats.RunStats{
			Network:  net.Name,
			Strategy: featureLabel(feat),
			Batch:    cfg.Batch,
			ClockMHz: cfg.PE.ClockMHz,
			Layers:   make([]stats.LayerStats, 0, n),
		},
	}
	if _, nop := rec.(trace.Nop); rec != nil && !nop {
		e.rec = &trace.Stamper{R: rec}
	}
	if cfg.Compression != nil {
		e.comp = cfg.Compression
		ch.SetCompressor(cfg.Compression)
	}
	if !cfg.Faults.Empty() {
		e.inj = fault.NewInjector(cfg.Faults)
	}
	e.obs = newObserver(reg)
	e.obs.attach(e)
	return e, nil
}

// place stores r in its producer's slab slot and returns the slot.
func (e *executor) place(r resident) *resident {
	slot := &e.slab[r.producer]
	*slot = r
	return slot
}

func (e *executor) bankBytes() int64 { return int64(e.cfg.Pool.BankBytes) }

// planBudget derives the buffer capacity the tiling planner may
// assume. The baseline's physical buffers are a static four-way split
// of the same SRAM (input/output × ping/pong) — the inflexibility the
// logical-buffer abstraction removes. Under role switching, the
// resident input serves as the input buffer and the free pool backs
// the streaming buffers.
func (e *executor) planBudget(l *nn.Layer) tiling.Budget {
	if !e.feat.RoleSwitch {
		q := e.cfg.Pool.TotalBytes() / 4
		return tiling.Budget{IBuf: q, OBuf: q, WBuf: e.cfg.WeightBufBytes}
	}
	free := e.pool.FreeBytes()
	var inOnChip int64
	for _, p := range e.cp.distinct[l.Index] {
		inOnChip += e.residents[p].onChip
	}
	return tiling.Budget{IBuf: inOnChip + free, OBuf: free, WBuf: e.cfg.WeightBufBytes}
}

// readClass labels a DRAM read feeding layer l from producer p.
func (e *executor) readClass(p int, l *nn.Layer) dram.Class {
	switch {
	case p == 0:
		return dram.ClassIFMRead // the input image lives in DRAM
	case l.Index-p > 1:
		return dram.ClassShortcutRead
	case e.feat.RoleSwitch:
		return dram.ClassSpillRead // would have been reused; capacity spill
	default:
		return dram.ClassIFMRead
	}
}

// recyclable is an operand buffer whose consumed prefix can be
// released into the current layer's output, keeping `keep` banks as a
// live margin (zero for element-wise streams, a sliding window for
// conv/pool under the StreamingRecycle extension).
type recyclable struct {
	buf  *sram.Buffer
	keep int
}

// recyclables appends to out the operand buffers the layer may
// consume bank-by-bank while producing its output. For an element-wise
// add this is procedure P4 proper: every operand making its final
// pass, released to zero. Under the StreamingRecycle extension a
// windowed layer may do the same with its input, provided the tiling
// makes a single monotone pass (no output-channel grouping, which
// would re-stream the input) and a window-sized margin survives.
func (e *executor) recyclables(out []recyclable, l *nn.Layer, distinct []int, plan tiling.Plan) []recyclable {
	finalPass := func(p int) *resident {
		r := e.residents[p]
		if r.consumersLeft == 1 && r.buf != nil && !r.buf.Freed() && !r.buf.Pinned() {
			return r
		}
		return nil
	}
	switch {
	case l.Kind == nn.OpEltwiseAdd && e.feat.IncrementalRecycle:
		for _, p := range distinct {
			if r := finalPass(p); r != nil {
				out = append(out, recyclable{buf: r.buf})
			}
		}
	case (l.Kind == nn.OpConv || l.Kind == nn.OpPool) && e.feat.StreamingRecycle:
		if plan.OutGroups != 1 || plan.InGroups != 1 {
			return out
		}
		for _, p := range distinct {
			r := finalPass(p)
			if r == nil {
				continue
			}
			// Sliding-window margin: k+stride input rows.
			in := l.In[0]
			marginBytes := int64(l.K+l.Stride) * int64(in.W) * int64(in.C) * int64(e.cfg.DType.Bytes())
			keep := int((marginBytes + e.bankBytes() - 1) / e.bankBytes())
			if keep < 1 {
				keep = 1
			}
			if r.buf.NumBanks() > keep {
				out = append(out, recyclable{buf: r.buf, keep: keep})
			}
		}
	}
	return out
}

// nextUseAfter returns the index of the first layer after i that reads
// producer p's feature map, or a sentinel past the network when none
// does.
func (e *executor) nextUseAfter(p, i int) int {
	for j := i + 1; j < len(e.net.Layers); j++ {
		if slices.Contains(e.cp.distinct[j], p) {
			return j
		}
	}
	return len(e.net.Layers) + 1
}

// evictOneBank implements the EvictFarthest policy: spill one tail
// bank of the pinned feature map whose next use is farthest in the
// future, provided it is farther than the output's own next use
// (otherwise eviction would be a strict loss). Inputs of the current
// layer are untouchable — they are being read right now.
func (e *executor) evictOneBank(l *nn.Layer, distinct []int, outNext int) (bool, error) {
	best, bestNext := -1, outNext
	for p, r := range e.residents {
		if r == nil || r.buf == nil || r.buf.Freed() || !r.buf.Pinned() || slices.Contains(distinct, p) {
			continue
		}
		if nu := e.nextUseAfter(p, l.Index); nu > bestNext {
			best, bestNext = p, nu
		}
	}
	if best < 0 {
		return false, nil
	}
	r := e.residents[best]
	if err := e.pool.Unpin(r.buf); err != nil {
		return false, err
	}
	if err := e.pool.ReleaseTailBanks(r.buf, 1); err != nil {
		return false, err
	}
	newOnChip := r.onChip
	if r.buf.Freed() {
		newOnChip = 0
	} else if c := r.buf.CapacityBytes(); newOnChip > c {
		newOnChip = c
	}
	if delta := r.onChip - newOnChip; delta > 0 {
		_, start, dur, err := e.transferSpan(dram.ClassSpillWrite, delta)
		if err != nil {
			return false, err
		}
		if e.rec != nil {
			e.recordSpan(trace.Event{Kind: trace.KindSpill, Layer: l.Name, Class: dram.ClassSpillWrite.String(),
				Tag: e.net.Layers[best].Name, Bytes: delta, Note: "evict-farthest"}, start, dur)
		}
	}
	r.onChip = newOnChip
	if r.buf.Freed() {
		r.buf = nil
	} else if err := e.pool.Pin(r.buf); err != nil {
		return false, err
	}
	if e.fn != nil {
		e.fn.evict(e, best, r)
	}
	return true, nil
}

// allocOutput forms the retained output buffer and recycles consumed
// operand banks when the free pool (minus the streaming reserve) runs
// out — and, under the EvictFarthest policy, spills colder pinned data.
// Each step moves as many banks as it can at once, leaving the pool
// exactly as growing one bank at a time would: first every free bank
// above the reserve, then operand banks released to the free list until
// it is one above the reserve, then operand banks handed straight to
// the output (MoveBanks; one at a time, each would be pushed and popped
// again). It returns the buffer (nil when nothing could be retained),
// the retained bytes, and the recycled bank count.
func (e *executor) allocOutput(l *nn.Layer, want int64, recycle []recyclable, distinct []int) (*sram.Buffer, int64, int64, error) {
	bankBytes, reserve := e.bankBytes(), e.cfg.ReserveBanks
	if !e.feat.PartialRetention {
		capacity := e.pool.FreeBytes() - int64(reserve)*bankBytes
		for _, rb := range recycle {
			capacity += rb.buf.CapacityBytes() - int64(rb.keep)*bankBytes
		}
		if capacity < want {
			return nil, 0, 0, nil // all-or-nothing: retain nothing
		}
	}
	var (
		buf      *sram.Buffer
		got      int64
		recycled int64
	)
	for got < want {
		above := e.pool.FreeBanks() - reserve
		if above > 0 {
			chunk := min(want-got, int64(above)*bankBytes)
			if buf == nil {
				b, err := e.pool.Alloc(sram.RoleOutput, l.Name, chunk)
				if err != nil {
					return nil, 0, 0, err
				}
				buf = b
				got += chunk
			} else {
				added, err := e.pool.Grow(buf, chunk)
				if err != nil {
					return nil, 0, 0, err
				}
				got += added
			}
			continue
		}
		var rb *recyclable
		for i := range recycle {
			if r := &recycle[i]; !r.buf.Freed() && r.buf.NumBanks() > r.keep {
				rb = r
				break
			}
		}
		if rb == nil {
			// No operand left to consume: evict one bank of cold pinned
			// data, or give up on the rest.
			if e.cfg.Eviction != EvictFarthest || !e.feat.ShortcutRetention {
				break
			}
			evicted, err := e.evictOneBank(l, distinct, e.nextUseAfter(l.Index, l.Index))
			if err != nil {
				return nil, 0, 0, err
			}
			if !evicted {
				break
			}
			continue
		}
		n := rb.buf.NumBanks() - rb.keep
		if above < 0 || buf == nil {
			// Refill the free list to one above the reserve; the
			// next round grows (or allocates) from it.
			n = min(n, 1-above)
			if err := e.pool.ReleaseBanks(rb.buf, n); err != nil {
				return nil, 0, 0, err
			}
		} else {
			n = min(n, e.cfg.Pool.BanksFor(want-got))
			added, err := e.pool.MoveBanks(rb.buf, buf, n, want-got)
			if err != nil {
				return nil, 0, 0, err
			}
			got += added
		}
		recycled += int64(n)
	}
	if e.rec != nil {
		if recycled > 0 {
			e.record(trace.Event{Kind: trace.KindRecycle, Layer: l.Name, Banks: int(recycled)})
		}
		if buf != nil {
			e.record(trace.Event{Kind: trace.KindAlloc, Layer: l.Name, Tag: l.Name,
				Role: sram.RoleOutput.String(), Banks: buf.NumBanks(), Bytes: got})
		}
	}
	return buf, got, recycled, nil
}

// captureSpilled retains (a prefix of) producer p's feature map after
// it streamed through the current layer, when it still has consumers
// ahead and no on-chip home. Only leftover capacity beyond the
// streaming reserve is used.
func (e *executor) captureSpilled(l *nn.Layer, p int) error {
	r := e.residents[p]
	// Capture only genuine fan-out (≥2 consumers ahead): holding banks
	// for a single far consumer is the retention-pressure gamble the
	// E15 policy study examines, not a clear win.
	if r == nil || r.buf != nil || r.consumersLeft < 2 || r.onChip > 0 {
		return nil
	}
	budget := e.pool.FreeBytes() - int64(e.cfg.ReserveBanks)*e.bankBytes()
	want := r.total
	if !e.feat.PartialRetention && budget < want {
		return nil
	}
	if want > budget {
		want = budget
	}
	if want <= 0 {
		return nil
	}
	buf, err := e.pool.Alloc(sram.RoleRetained, e.net.Layers[p].Name, want)
	if err != nil {
		return err
	}
	r.buf = buf
	r.onChip = want
	if err := e.pool.Pin(buf); err != nil {
		return err
	}
	if e.rec != nil {
		e.record(trace.Event{Kind: trace.KindPin, Layer: l.Name, Tag: buf.Tag(),
			Banks: buf.NumBanks(), Bytes: want, Note: "capture"})
	}
	if e.fn != nil {
		g := e.fn.golden[p]
		buf.Payload = g[:want/4]
	}
	return nil
}

func (e *executor) execLayer(l *nn.Layer) error {
	if e.rec != nil {
		e.record(trace.Event{Kind: trace.KindLayerStart, Layer: l.Name})
	}
	e.curLayer = l.Name
	if e.memCursor < e.clock {
		e.memCursor = e.clock
	}
	if err := e.applyFaults(layerRef{index: l.Index, name: l.Name}); err != nil {
		return err
	}
	d := e.cfg.DType

	if l.Kind == nn.OpInput || l.Kind == nn.OpConcat {
		// The input image lives in DRAM. A concat is transparent:
		// concatenation is bank/address layout; its sources are
		// consumed directly by the concat's readers.
		if l.Kind == nn.OpInput {
			total := l.Out.Bytes(d)
			e.residents[0] = e.place(resident{
				producer: 0, total: total, spilled: total,
				consumersLeft: e.cp.consumers[0], lastUse: e.cp.lastUse[0],
			})
			if e.fn != nil {
				e.fn.produceInput(e, l)
			}
		} else if e.fn != nil {
			if err := e.fn.computeGolden(e, l); err != nil {
				return err
			}
		}
		e.run.Layers = append(e.run.Layers, stats.LayerStats{Name: l.Name, Kind: l.Kind.String(), Stage: l.Stage})
		if e.rec != nil {
			e.record(trace.Event{Kind: trace.KindLayerEnd, Layer: l.Name})
		}
		return nil
	}

	before := e.ch.Traffic()
	ls := stats.LayerStats{Name: l.Name, Kind: l.Kind.String(), Stage: l.Stage}

	plan, err := tiling.ForLayer(l, d, e.planBudget(l))
	if err != nil {
		if e.pool.FailedBanks() > 0 {
			// The shrunken pool can no longer back a workable tiling:
			// degradation has a floor, and this plan is past it.
			return fault.Errf(fault.Recoverable, fault.CheckCapacity, l.Name,
				"no tiling with %d of %d banks retired: %w",
				e.pool.FailedBanks(), e.cfg.Pool.NumBanks, err)
		}
		return err
	}

	srcs, distinct := e.cp.sources[l.Index], e.cp.distinct[l.Index]

	// Operands at their final read are unpinned so the add can recycle
	// their banks and the epilogue can free them.
	for _, p := range distinct {
		r := e.residents[p]
		if r.consumersLeft == 1 && r.buf != nil && r.buf.Pinned() {
			if err := e.pool.Unpin(r.buf); err != nil {
				return err
			}
			if e.rec != nil {
				e.record(trace.Event{Kind: trace.KindUnpin, Layer: l.Name, Tag: r.buf.Tag()})
			}
		}
	}

	if e.fn != nil {
		if err := e.fn.verifyInputs(e, l, distinct); err != nil {
			return err
		}
		if err := e.fn.computeGolden(e, l); err != nil {
			return err
		}
	}

	// Input traffic. The planner's IFM bytes embed the halo/group
	// overhead factor for streamed data; resident bytes are free.
	var inTotal int64
	for _, s := range l.In {
		inTotal += s.Bytes(d)
	}
	factor := 1.0
	if inTotal > 0 {
		factor = float64(plan.IFMReadBytes) / float64(inTotal)
	}
	for _, p := range srcs {
		r := e.residents[p]
		ls.ReusedInputBytes += r.onChip
		shortcut := l.Index-p > 1 && p != 0
		if shortcut && r.onChip > 0 {
			e.obs.hit(ProcRetention) // mined shortcut bytes served on chip
		}
		if dp := r.dramBytes(); dp > 0 {
			read := int64(float64(dp)*factor + 0.5)
			class := e.readClass(p, l)
			moved, start, dur, err := e.transferSpan(class, read)
			if err != nil {
				return err
			}
			switch class {
			case dram.ClassShortcutRead:
				e.obs.miss(ProcRetention)
			case dram.ClassSpillRead:
				e.obs.miss(ProcRoleSwitch)
			}
			if e.rec != nil {
				kind := trace.KindDRAM
				if class == dram.ClassSpillRead || class == dram.ClassShortcutRead {
					kind = trace.KindRefill
				}
				e.recordSpan(trace.Event{Kind: kind, Layer: l.Name,
					Tag: e.net.Layers[p].Name, Class: class.String(), Bytes: moved}, start, dur)
			}
		}
		if r.buf != nil && l.Index-p == 1 && r.buf.Role() != sram.RoleInput {
			if err := e.pool.SetRole(r.buf, sram.RoleInput); err != nil {
				return err
			}
			e.obs.hit(ProcRoleSwitch)
			if e.rec != nil {
				e.record(trace.Event{Kind: trace.KindRoleSwitch, Layer: l.Name, Tag: r.buf.Tag(),
					Role: sram.RoleInput.String()})
			}
		}
	}

	e.ch.Transfer(dram.ClassWeightRead, plan.WeightReadBytes)

	// Output placement.
	outBytes := l.Out.Bytes(d)
	consumers := e.cp.consumers[l.Index]
	lastUse := e.cp.lastUse[l.Index]
	out := e.place(resident{producer: l.Index, total: outBytes, consumersLeft: consumers, lastUse: lastUse})

	keep := e.feat.RoleSwitch && consumers > 0
	fullCopy := !keep
	if keep && !e.feat.ShortcutRetention && lastUse > l.Index+1 {
		// Role switching alone can only hand data to the next layer;
		// later consumers need a DRAM copy.
		fullCopy = true
	}
	if keep {
		e.recycle = e.recyclables(e.recycle[:0], l, distinct, plan)
		buf, got, recycled, err := e.allocOutput(l, outBytes, e.recycle, distinct)
		if err != nil {
			return err
		}
		out.buf = buf
		out.onChip = got
		ls.RecycledBanks = recycled
		if l.Kind == nn.OpEltwiseAdd && e.feat.IncrementalRecycle {
			if recycled > 0 {
				e.obs.hit(ProcRecycle)
			} else {
				e.obs.miss(ProcRecycle)
			}
		}
		if e.feat.PartialRetention {
			switch {
			case got > 0 && got < outBytes:
				e.obs.hit(ProcPartial) // a prefix survived the squeeze
			case got == 0:
				e.obs.miss(ProcPartial)
			}
		}
		if fullCopy {
			_, start, dur, err := e.transferSpan(dram.ClassOFMWrite, outBytes)
			if err != nil {
				return err
			}
			if e.rec != nil {
				e.recordSpan(trace.Event{Kind: trace.KindDRAM, Layer: l.Name, Tag: l.Name,
					Class: dram.ClassOFMWrite.String(), Bytes: outBytes}, start, dur)
			}
			out.spilled = outBytes
		} else if got < outBytes {
			spill := outBytes - got
			_, start, dur, err := e.transferSpan(dram.ClassSpillWrite, spill)
			if err != nil {
				return err
			}
			out.spilled = spill
			ls.SpilledBytes = spill
			if e.rec != nil {
				e.recordSpan(trace.Event{Kind: trace.KindSpill, Layer: l.Name, Tag: l.Name, Bytes: spill,
					Class: dram.ClassSpillWrite.String(), Note: "partial retention"}, start, dur)
			}
		}
	} else {
		_, start, dur, err := e.transferSpan(dram.ClassOFMWrite, outBytes)
		if err != nil {
			return err
		}
		if e.rec != nil {
			e.recordSpan(trace.Event{Kind: trace.KindDRAM, Layer: l.Name, Tag: l.Name,
				Class: dram.ClassOFMWrite.String(), Bytes: outBytes}, start, dur)
		}
		out.spilled = outBytes
	}

	if out.buf != nil && e.feat.ShortcutRetention && lastUse > l.Index+1 {
		if err := e.pool.Pin(out.buf); err != nil {
			return err
		}
		ls.RetainedBytes = out.onChip
		if e.rec != nil {
			e.record(trace.Event{Kind: trace.KindPin, Layer: l.Name, Tag: l.Name,
				Banks: out.buf.NumBanks(), Bytes: out.onChip})
		}
	}
	if consumers > 0 {
		e.residents[l.Index] = out
	}
	if e.fn != nil {
		e.fn.placeOutput(e, l, out, fullCopy)
	}

	// Release consumed operands.
	for _, p := range distinct {
		r := e.residents[p]
		r.consumersLeft--
		if r.consumersLeft == 0 || !e.feat.ShortcutRetention {
			if r.buf != nil && e.rec != nil {
				e.record(trace.Event{Kind: trace.KindFree, Layer: l.Name, Tag: e.net.Layers[p].Name})
			}
			if err := r.dropBuffer(e.pool); err != nil {
				return err
			}
		}
	}

	// Capture: an operand that streamed from DRAM this layer but has
	// more consumers ahead (the input image feeding several branches, a
	// fully spilled fan-out fmap) is worth keeping — it is on the chip
	// right now. Leftover capacity only, so output retention keeps
	// priority.
	if e.feat.ShortcutRetention {
		for _, p := range distinct {
			if err := e.captureSpilled(l, p); err != nil {
				return err
			}
		}
	}

	// Timing and bookkeeping.
	delta := e.ch.Traffic()
	for c := range delta {
		delta[c] -= before[c]
	}
	ls.Traffic = delta // scmvet:ok accounting per-layer slice of the channel's own tally, no new bytes
	ls.ComputeCycles = e.cfg.PE.LayerCycles(l)
	ls.MemCycles = e.memCycles(delta)
	ls.Cycles = ls.ComputeCycles
	if ls.MemCycles > ls.Cycles {
		ls.Cycles = ls.MemCycles
	}
	if e.cfg.DetailedTiming {
		if cyc := e.pipelineCycles(l, plan, delta); cyc > ls.Cycles {
			ls.Cycles = cyc
		}
	}
	ls.Cycles += e.cfg.ControlCycles
	// Fault handling is serialized with the layer: scrubs, migrations,
	// and DMA retry/backoff stalls accrued since the previous layer
	// closed are charged on top of the overlap model.
	ls.Cycles += e.layerFaultCycles
	e.layerFaultCycles = 0
	// Codec engine time (encode on stores, decode on loads) is likewise
	// serialized with the layer that moved the data.
	ls.CodecCycles = e.layerCodecCycles
	ls.Cycles += e.layerCodecCycles
	e.layerCodecCycles = 0
	if werr := e.wd.CheckLayer(l.Name, ls.Cycles); werr != nil {
		return werr
	}
	ls.SRAMBytes = 2 * (inTotal + outBytes + plan.WeightReadBytes)
	e.run.Layers = append(e.run.Layers, ls)
	e.obs.layerDone(ls)
	if e.rec != nil {
		e.recordSpan(trace.Event{Kind: trace.KindLayerEnd, Layer: l.Name, Bytes: delta.Total(),
			Banks: e.pool.UsedBanks(), Pinned: e.pool.PinnedBanks(),
			Note: fmt.Sprintf("pinned=%d", e.pool.PinnedBanks())}, e.clock+ls.Cycles, ls.Cycles)
	}
	e.clock += ls.Cycles
	return nil
}

// memCycles converts a layer's traffic into channel-occupancy cycles.
// With a dedicated weight channel the two streams overlap and the
// slower one gates the layer; otherwise everything shares one pipe.
// Injected bandwidth degradation stretches the feature-map stream by
// 1/factor; the weight channel is modeled fault-free (it is a separate
// physical SODIMM on the prototype board).
func (e *executor) memCycles(delta dram.Traffic) int64 {
	clock := e.cfg.PE.ClockMHz
	scale := func(cycles int64) int64 {
		if f := e.inj.Factor(); f < 1 {
			return int64(float64(cycles)/f + 0.999999)
		}
		return cycles
	}
	if e.cfg.WeightBandwidthGBps <= 0 {
		return scale(e.ch.CyclesAt(delta.Total(), clock))
	}
	fm := scale(e.ch.CyclesAt(delta.FeatureMap(), clock))
	wBytesPerCycle := e.cfg.WeightBandwidthGBps * 1e9 / (clock * 1e6)
	w := int64(float64(delta[dram.ClassWeightRead])/wBytesPerCycle + 0.999999)
	if w > fm {
		return w
	}
	return fm
}

func (e *executor) finish() (stats.RunStats, error) {
	if used := e.pool.UsedBanks(); used != 0 {
		return stats.RunStats{}, fault.Errf(fault.Fatal, fault.CheckBankLeak, "",
			"core: %s: %d banks leaked at end of run", e.net.Name, used)
	}
	if err := e.pool.CheckInvariants(); err != nil {
		return stats.RunStats{}, fault.Errf(fault.Fatal, fault.CheckInvariant, "",
			"core: %s: %w", e.net.Name, err)
	}
	batch := int64(e.cfg.Batch)
	r := &e.run
	r.Traffic = e.ch.Traffic() // scmvet:ok accounting aggregation of the channel's tally into RunStats
	for c := range r.Traffic {
		if dram.Class(c) == dram.ClassWeightRead && e.cfg.AmortizeWeights {
			continue // weights stream once per batch (layer-inner loop)
		}
		r.Traffic[c] *= batch // scmvet:ok accounting batch replication of per-image traffic (layer loop simulates one image)
	}
	for _, ls := range r.Layers {
		r.ComputeCycles += ls.ComputeCycles * batch
		r.MemCycles += ls.MemCycles * batch
		r.TotalCycles += ls.Cycles * batch
		r.SRAMBytes += ls.SRAMBytes * batch
	}
	r.MACs = e.net.TotalMACs() * batch
	ps := e.pool.Stats()
	r.PeakUsedBanks = ps.PeakUsedBanks
	r.PeakPinnedBanks = ps.PeakPinnedBanks
	r.RoleSwitches = ps.RoleSwitches
	r.BanksRecycled = ps.BanksRecycled
	r.BanksEvicted = ps.BanksEvicted
	// Fault statistics are per-run, not per-image: the injected events
	// happen once regardless of batch.
	r.Faults = e.flt
	if e.comp != nil {
		cs := &stats.CompressionStats{
			Codec:        e.comp.String(),
			Logical:      e.ch.LogicalTraffic(),
			Wire:         e.ch.RawTraffic(),
			EncodeCycles: e.encCycles * batch,
			DecodeCycles: e.decCycles * batch,
		}
		for c := range cs.Logical {
			if dram.Class(c) == dram.ClassWeightRead && e.cfg.AmortizeWeights {
				continue // same batch treatment as r.Traffic above
			}
			cs.Logical[c] *= batch // scmvet:ok accounting batch scaling of the per-image codec ledger, mirrors r.Traffic above
			cs.Wire[c] *= batch    // scmvet:ok accounting batch scaling of the per-image codec ledger, mirrors r.Traffic above
		}
		cs.SavedBytes = cs.Logical.Total() - cs.Wire.Total()
		r.Compression = cs
	}
	r.Energy = e.cfg.Energy.Estimate(r.Traffic.Total(), r.SRAMBytes, r.MACs)
	e.obs.finishRun(r, batch)
	return *r, nil
}
