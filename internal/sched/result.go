package sched

import (
	"fmt"
	"sort"

	"shortcutmining/internal/core"
	"shortcutmining/internal/dram"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/stats"
)

// RequestStat is one settled request's timeline, in cycles.
type RequestStat struct {
	Stream        string `json:"stream"`
	Seq           int    `json:"seq"`
	Arrival       int64  `json:"arrival"`
	Start         int64  `json:"start"`
	Finish        int64  `json:"finish"`
	Latency       int64  `json:"latency"`
	QueueWait     int64  `json:"queue_wait"`
	ServiceCycles int64  `json:"service_cycles"`
	Preemptions   int64  `json:"preemptions"`
	SpillBytes    int64  `json:"spill_bytes"`
	ReloadBytes   int64  `json:"reload_bytes"`
}

// Quantiles holds the nearest-rank latency percentiles of one series,
// in cycles.
type Quantiles struct {
	P50 int64 `json:"p50"`
	P95 int64 `json:"p95"`
	P99 int64 `json:"p99"`
}

// ComputeQuantiles computes nearest-rank percentiles over a copy of
// vals; internal/cluster summarizes its latencies with it too.
func ComputeQuantiles(vals []int64) Quantiles {
	if len(vals) == 0 {
		return Quantiles{}
	}
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return Quantiles{P50: metrics.NearestRank(s, 0.50), P95: metrics.NearestRank(s, 0.95), P99: metrics.NearestRank(s, 0.99)}
}

// StreamResult is one stream's QoS outcome.
type StreamResult struct {
	Name     string `json:"name"`
	Network  string `json:"network"`
	Strategy string `json:"strategy"`
	Priority int    `json:"priority,omitempty"`

	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	Rejected  int `json:"rejected"`

	Latency   Quantiles `json:"latency_cycles"`
	QueueWait Quantiles `json:"queue_wait_cycles"`
	// MeanLatency is the arithmetic mean request latency in cycles.
	MeanLatency float64 `json:"mean_latency_cycles"`

	// Preemptions counts suspensions of this stream's runs; Sched is
	// the multi-tenancy cost ledger (spill/reload traffic and cycles
	// attributable purely to sharing the accelerator).
	Preemptions int64           `json:"preemptions"`
	Sched       core.SchedStats `json:"sched"`

	// ServiceCycles is the sum of completed requests' own cycle
	// counts and SingleTenantCycles one request's single-tenant
	// TotalCycles — by construction ServiceCycles == Completed ×
	// SingleTenantCycles, the reconciliation the tests pin.
	ServiceCycles      int64 `json:"service_cycles"`
	SingleTenantCycles int64 `json:"single_tenant_cycles"`
	// Traffic sums the completed requests' own DRAM traffic; it
	// excludes Sched spill/reload bytes, which are reported above.
	Traffic dram.Traffic `json:"traffic"`

	// Compression sums the completed requests' codec ledgers; nil when
	// the spec carries no compress= clause.
	Compression *stats.CompressionStats `json:"compression,omitempty"`
}

// Slowdown is the mean latency relative to an uncontended run
// (mean latency / single-tenant cycles); 1.0 = no interference.
func (r StreamResult) Slowdown() float64 {
	if r.SingleTenantCycles == 0 {
		return 0
	}
	return r.MeanLatency / float64(r.SingleTenantCycles)
}

// TenancyBytes is the stream's total multi-tenancy traffic: bytes
// spilled at preemption plus bytes re-loaded at resumption.
func (r StreamResult) TenancyBytes() int64 { return r.Sched.SpillBytes + r.Sched.ReloadBytes }

// Result is a complete scheduling outcome.
type Result struct {
	Policy        string `json:"policy"`
	Seed          int64  `json:"seed"`
	QuantumLayers int    `json:"quantum_layers"`
	PoolBanks     int    `json:"pool_banks"`

	// MakespanCycles is the finish time of the last completed
	// request; PeakResident the most runs ever co-resident.
	MakespanCycles int64 `json:"makespan_cycles"`
	PeakResident   int   `json:"peak_resident"`

	Streams []StreamResult `json:"streams"`
	// Requests lists every settled request's timeline (completion
	// order), for CSV export and plotting.
	Requests []RequestStat `json:"requests"`

	// Compression is the whole scenario's codec ledger (the sum of the
	// per-stream ledgers); nil when compression is off.
	Compression *stats.CompressionStats `json:"compression,omitempty"`
}

// TotalTenancyBytes sums every stream's multi-tenancy traffic — the
// price of sharing, zero under FCFS.
func (r *Result) TotalTenancyBytes() int64 {
	var total int64
	for _, s := range r.Streams {
		total += s.TenancyBytes()
	}
	return total
}

// QoSTable renders the per-stream statistics for CLI / markdown use.
func (r *Result) QoSTable() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Per-stream QoS (policy=%s, seed=%d, pool=%d banks)", r.Policy, r.Seed, r.PoolBanks),
		"stream", "network", "strategy", "reqs", "done", "rej",
		"lat p50 (Mcyc)", "lat p95 (Mcyc)", "lat p99 (Mcyc)",
		"wait p95 (Mcyc)", "slowdown", "preempts", "tenancy MB")
	mcyc := func(v int64) string { return fmt.Sprintf("%.2f", float64(v)/1e6) }
	for _, s := range r.Streams {
		t.Add(s.Name, s.Network, s.Strategy,
			fmt.Sprintf("%d", s.Requests), fmt.Sprintf("%d", s.Completed), fmt.Sprintf("%d", s.Rejected),
			mcyc(s.Latency.P50), mcyc(s.Latency.P95), mcyc(s.Latency.P99),
			mcyc(s.QueueWait.P95),
			fmt.Sprintf("%.2fx", s.Slowdown()),
			fmt.Sprintf("%d", s.Preemptions),
			fmt.Sprintf("%.2f", float64(s.TenancyBytes())/1e6))
	}
	return t
}

// assemble folds the accumulators into the final Result.
func (s *scheduler) assemble() *Result {
	res := &Result{
		Policy:         s.spec.Policy.String(),
		Seed:           s.spec.Seed,
		QuantumLayers:  s.quantum,
		PoolBanks:      s.cfg.Pool.NumBanks,
		MakespanCycles: s.makespan,
		PeakResident:   s.peakRes,
	}
	for i, acc := range s.perStream {
		st := s.spec.Streams[i]
		sr := StreamResult{
			Name:     s.names[i],
			Network:  st.Network,
			Strategy: st.Strategy.String(),
			Priority: st.Priority,

			Requests:  st.Requests,
			Completed: acc.completed,
			Rejected:  acc.rejected,

			Latency:   ComputeQuantiles(acc.latencies),
			QueueWait: ComputeQuantiles(acc.queueWaits),

			Preemptions: acc.preemptions,
			Sched:       acc.sched,

			ServiceCycles:      acc.serviceCycles,
			SingleTenantCycles: acc.singleTenant,
			Traffic:            acc.traffic,
			Compression:        acc.comp,
		}
		if acc.comp != nil {
			if res.Compression == nil {
				res.Compression = &stats.CompressionStats{}
			}
			res.Compression.Add(*acc.comp)
		}
		if n := len(acc.latencies); n > 0 {
			var sum int64
			for _, l := range acc.latencies {
				sum += l
			}
			sr.MeanLatency = float64(sum) / float64(n)
		}
		res.Streams = append(res.Streams, sr)
		res.Requests = append(res.Requests, acc.requests...)
	}
	sort.SliceStable(res.Requests, func(a, b int) bool { return res.Requests[a].Finish < res.Requests[b].Finish })
	return res
}
