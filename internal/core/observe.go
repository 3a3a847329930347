package core

import (
	"shortcutmining/internal/dram"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/stats"
	"shortcutmining/internal/trace"
)

// Metric names exposed by an observed run. The per-layer cycle
// counters are the acceptance contract: their sum equals
// RunStats.TotalCycles exactly.
const (
	MetricLayerCycles        = "scm_layer_cycles_total"
	MetricLayerComputeCycles = "scm_layer_compute_cycles_total"
	MetricLayerMemCycles     = "scm_layer_mem_cycles_total"
	MetricDRAMBytes          = "scm_dram_bytes_total"
	MetricDRAMTransfers      = "scm_dram_transfers_total"
	MetricDRAMBurstBytes     = "scm_dram_burst_bytes"
	MetricDRAMUtilization    = "scm_dram_bandwidth_utilization"
	MetricPoolUsedPeak       = "scm_pool_used_banks_peak"
	MetricPoolPinnedPeak     = "scm_pool_pinned_banks_peak"
	MetricProcHits           = "scm_proc_hits_total"
	MetricProcMisses         = "scm_proc_misses_total"

	// Interlayer-compression metrics (absent when no codec is
	// configured; registered lazily at run finish).
	MetricCompressLogicalBytes = "scm_compress_logical_bytes_total"
	MetricCompressWireBytes    = "scm_compress_wire_bytes_total"
	MetricCompressSavedBytes   = "scm_compress_saved_bytes_total"
	MetricCompressCodecCycles  = "scm_compress_codec_cycles_total"

	// Fault-injection metrics (all zero in a fault-free run).
	MetricFaultsInjected  = "scm_faults_injected_total"
	MetricDMARetries      = "scm_dma_retries_total"
	MetricDMARetryCycles  = "scm_dma_retry_cycles_total"
	MetricBankRelocations = "scm_bank_relocations_total"
	MetricFaultSpillBytes = "scm_fault_spill_bytes_total"
	MetricDegradedCycles  = "scm_dram_degraded_cycles_total"
	MetricBandwidthFactor = "scm_dram_bandwidth_factor"
	MetricPoolFailedBanks = "scm_pool_failed_banks"
)

// Fault kind labels of MetricFaultsInjected.
const (
	FaultBankFail      = "bank-fail"
	FaultBankTransient = "bank-transient"
	FaultBWDegrade     = "bw-degrade"
)

// Procedure labels of the hit/miss counters. Hit/miss semantics per
// procedure (an operand under partial retention can count on both
// sides — the on-chip prefix hits, the DRAM remainder misses):
//
//	p2  hit: an output buffer was role-switched into the next layer's
//	    input; miss: an adjacent producer's bytes had to stream back
//	    from DRAM despite role switching being on (capacity spill).
//	p3  hit: a shortcut operand (producer distance > 1) was served
//	    from retained banks; miss: shortcut bytes were re-fetched.
//	p4  hit: an element-wise add recycled consumed operand banks into
//	    its output; miss: recycling was enabled at an add but no bank
//	    could be recycled.
//	p5  hit: partial retention kept a non-empty prefix of an output
//	    that did not fully fit; miss: an output that wanted on-chip
//	    placement retained nothing.
const (
	ProcRoleSwitch = "p2"
	ProcRetention  = "p3"
	ProcRecycle    = "p4"
	ProcPartial    = "p5"
)

// observer is the executor's pre-resolved instrument bundle: every
// hot-path update is a pointer dereference, never a registry lookup.
// A nil *observer disables observation with a single branch per site.
type observer struct {
	reg *metrics.Registry

	dramBytes     [dram.NumClasses]*metrics.Counter
	dramTransfers [dram.NumClasses]*metrics.Counter
	burst         *metrics.Histogram
	util          *metrics.Histogram

	poolUsedPeak   *metrics.Gauge
	poolPinnedPeak *metrics.Gauge

	procHit  map[string]*metrics.Counter
	procMiss map[string]*metrics.Counter

	faultKind      map[string]*metrics.Counter
	dmaRetries     *metrics.Counter
	dmaRetryCycles *metrics.Counter
	relocations    *metrics.Counter
	faultSpill     *metrics.Counter
	degradedCycles *metrics.Counter
	bwFactor       *metrics.Gauge
	failedBanks    *metrics.Gauge
}

// newObserver registers the run-wide instrument families on reg and
// resolves the series the executor updates inline. Returns nil for a
// nil registry so call sites can gate on one pointer.
func newObserver(reg *metrics.Registry) *observer {
	if reg == nil {
		return nil
	}
	o := &observer{
		reg: reg,
		burst: reg.Histogram(MetricDRAMBurstBytes,
			"burst-rounded bytes moved per DRAM transfer",
			metrics.ExpBuckets(64, 4, 10)), // 64 B .. 16 MiB
		util: reg.Histogram(MetricDRAMUtilization,
			"per-layer feature-map channel occupancy (mem cycles / layer cycles)",
			[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}),
		poolUsedPeak: reg.Gauge(MetricPoolUsedPeak,
			"high-water mark of occupied SRAM banks"),
		poolPinnedPeak: reg.Gauge(MetricPoolPinnedPeak,
			"high-water mark of pinned (retained) SRAM banks"),
		procHit:  make(map[string]*metrics.Counter),
		procMiss: make(map[string]*metrics.Counter),
	}
	for _, c := range dram.Classes() {
		o.dramBytes[c] = reg.Counter(MetricDRAMBytes,
			"burst-rounded off-chip bytes by traffic class", metrics.L("class", c.String()))
		o.dramTransfers[c] = reg.Counter(MetricDRAMTransfers,
			"DRAM transfers by traffic class", metrics.L("class", c.String()))
	}
	for _, p := range []string{ProcRoleSwitch, ProcRetention, ProcRecycle, ProcPartial} {
		o.procHit[p] = reg.Counter(MetricProcHits,
			"times a Shortcut Mining procedure served its purpose", metrics.L("proc", p))
		o.procMiss[p] = reg.Counter(MetricProcMisses,
			"times a Shortcut Mining procedure fell back to DRAM", metrics.L("proc", p))
	}
	o.faultKind = make(map[string]*metrics.Counter)
	for _, k := range []string{FaultBankFail, FaultBankTransient, FaultBWDegrade} {
		o.faultKind[k] = reg.Counter(MetricFaultsInjected,
			"injected faults by kind", metrics.L("kind", k))
	}
	o.dmaRetries = reg.Counter(MetricDMARetries,
		"DMA transfer attempts that failed and were reissued")
	o.dmaRetryCycles = reg.Counter(MetricDMARetryCycles,
		"cycles spent on DMA re-transfers and exponential backoff")
	o.relocations = reg.Counter(MetricBankRelocations,
		"failing banks whose contents migrated to a spare bank")
	o.faultSpill = reg.Counter(MetricFaultSpillBytes,
		"bytes P5-spilled to DRAM because a failing bank had no spare")
	o.degradedCycles = reg.Counter(MetricDegradedCycles,
		"extra channel cycles caused by bandwidth degradation")
	o.bwFactor = reg.Gauge(MetricBandwidthFactor,
		"current effective feature-map bandwidth multiplier (1 = nominal)")
	o.bwFactor.Set(1)
	o.failedBanks = reg.Gauge(MetricPoolFailedBanks,
		"SRAM banks retired from service")
	return o
}

// fault bumps the injected-fault counter for a kind; nil-safe.
func (o *observer) fault(kind string, n int64) {
	if o != nil {
		o.faultKind[kind].Add(n)
	}
}

// retry records one reissued DMA transfer and its cycle cost.
func (o *observer) retry(cycles int64) {
	if o != nil {
		o.dmaRetries.Inc()
		o.dmaRetryCycles.Add(cycles)
	}
}

// relocated records a bank migration to a spare.
func (o *observer) relocated() {
	if o != nil {
		o.relocations.Inc()
	}
}

// faultSpilled records bytes pushed to DRAM by a bank failure.
func (o *observer) faultSpilled(bytes int64) {
	if o != nil {
		o.faultSpill.Add(bytes)
	}
}

// degraded records extra cycles from reduced bandwidth.
func (o *observer) degraded(cycles int64) {
	if o != nil {
		o.degradedCycles.Add(cycles)
	}
}

// bandwidthFactor tracks the current degradation factor gauge.
func (o *observer) bandwidthFactor(f float64) {
	if o != nil {
		o.bwFactor.Set(f)
	}
}

// poolFailed tracks the retired-bank gauge.
func (o *observer) poolFailed(n int) {
	if o != nil {
		o.failedBanks.Set(float64(n))
	}
}

// attach hooks the platform components of e so their events flow into
// the registry without the executor touching every call site.
func (o *observer) attach(e *executor) {
	if o == nil {
		return
	}
	e.ch.SetObserver(func(c dram.Class, payload, moved int64) {
		o.dramBytes[c].Add(moved)
		o.dramTransfers[c].Inc()
		o.burst.Observe(float64(moved))
	})
	e.pool.SetObserver(func(used, pinned int) {
		o.poolUsedPeak.SetMax(float64(used))
		o.poolPinnedPeak.SetMax(float64(pinned))
	})
}

// hit / miss bump a procedure counter; nil-safe.
func (o *observer) hit(proc string) {
	if o != nil {
		o.procHit[proc].Inc()
	}
}

func (o *observer) miss(proc string) {
	if o != nil {
		o.procMiss[proc].Inc()
	}
}

// layerDone records the per-layer channel-utilization sample.
func (o *observer) layerDone(ls stats.LayerStats) {
	if o == nil || ls.Cycles <= 0 {
		return
	}
	o.util.Observe(float64(ls.MemCycles) / float64(ls.Cycles))
}

// finishRun records the per-layer cycle attribution (batch-scaled so
// the family sums to RunStats.TotalCycles exactly) and embeds the
// registry snapshot in the run result.
func (o *observer) finishRun(r *stats.RunStats, batch int64) {
	if o == nil {
		return
	}
	for _, ls := range r.Layers {
		l := metrics.L("layer", ls.Name)
		o.reg.Counter(MetricLayerCycles,
			"attributed cycles per layer (sums to RunStats.TotalCycles)", l).Add(ls.Cycles * batch)
		o.reg.Counter(MetricLayerComputeCycles,
			"PE-array cycles per layer", l).Add(ls.ComputeCycles * batch)
		o.reg.Counter(MetricLayerMemCycles,
			"feature-map channel occupancy cycles per layer", l).Add(ls.MemCycles * batch)
	}
	if cs := r.Compression; cs != nil {
		for _, c := range dram.Classes() {
			if !c.Compressible() {
				continue
			}
			l := metrics.L("class", c.String())
			o.reg.Counter(MetricCompressLogicalBytes,
				"pre-codec (logical) bytes by compressible traffic class", l).Add(cs.Logical[c])
			o.reg.Counter(MetricCompressWireBytes,
				"post-codec wire payload bytes by compressible traffic class", l).Add(cs.Wire[c])
		}
		o.reg.Counter(MetricCompressSavedBytes,
			"bytes the interlayer codec kept off the wire").Add(cs.SavedBytes)
		o.reg.Counter(MetricCompressCodecCycles,
			"codec engine cycles serialized into the run",
			metrics.L("dir", "encode")).Add(cs.EncodeCycles)
		o.reg.Counter(MetricCompressCodecCycles,
			"codec engine cycles serialized into the run",
			metrics.L("dir", "decode")).Add(cs.DecodeCycles)
	}
	r.Metrics = o.reg.Snapshot()
}

// record stamps the event with the executor's layer clock and forwards
// it to the trace recorder. Call sites check e.rec != nil first, so an
// untraced run never builds the event.
func (e *executor) record(ev trace.Event) {
	ev.Cycle = e.clock
	e.rec.Record(ev)
}

// recordSpan forwards an interval event (DMA transfer, layer span)
// with an explicit start cycle and duration.
func (e *executor) recordSpan(ev trace.Event, start, dur int64) {
	ev.Cycle = start
	ev.DurCycles = dur
	e.rec.Record(ev)
}

// transferSpan moves bytes over the feature-map channel, advances the
// DMA cursor by the transfer's occupancy cycles, and returns the moved
// bytes plus the span for trace stamping. The cursor never runs
// backwards: it is pulled up to the layer clock at layer entry, so
// DMA spans stay monotone across the whole run.
//
// Under fault injection the span stretches: bandwidth degradation
// scales the occupancy by 1/factor, and each injected transient
// failure reissues the transfer after an exponentially growing
// backoff. Exhausting the per-transfer attempt budget is a fatal
// stuck-progress RunError.
func (e *executor) transferSpan(c dram.Class, bytes int64) (moved, start, dur int64, err error) {
	moved = e.ch.Transfer(c, bytes)
	dur = e.ch.CyclesAt(moved, e.cfg.PE.ClockMHz)
	if e.comp != nil && moved > 0 {
		// Codec engine time is charged on the logical payload and
		// serialized into the layer (like fault handling), not into the
		// channel-occupancy span: the channel only sees wire bytes.
		enc, dec := e.comp.CodecCycles(c, bytes)
		e.encCycles += enc
		e.decCycles += dec
		e.layerCodecCycles += enc + dec
	}
	if f := e.inj.Factor(); f < 1 && dur > 0 {
		scaled := int64(float64(dur)/f + 0.999999)
		e.flt.DegradedCycles += scaled - dur
		e.obs.degraded(scaled - dur)
		dur = scaled
	}
	if moved > 0 {
		if err := e.retryLoop(c, bytes, moved, dur); err != nil {
			return moved, e.memCursor, dur, err
		}
	}
	start = e.memCursor
	e.memCursor += dur
	return moved, start, dur, nil
}
