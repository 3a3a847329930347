package core

import (
	"slices"

	"shortcutmining/internal/nn"
	"shortcutmining/internal/sram"
)

// resident tracks where one produced feature map currently lives: the
// on-chip portion (a logical buffer in the bank pool) and the spilled
// portion (bytes in DRAM). The baseline keeps everything spilled; full
// Shortcut Mining keeps everything on chip when capacity allows.
type resident struct {
	producer int
	total    int64
	buf      *sram.Buffer // nil when nothing is on chip
	onChip   int64
	spilled  int64 // bytes available in DRAM (capacity spills or full copies)

	consumersLeft int
	lastUse       int
}

// dramBytes is the portion a consumer must fetch from DRAM.
func (r *resident) dramBytes() int64 { return r.total - r.onChip }

// dropBuffer detaches and frees the on-chip portion (used when a
// design point without retention releases a feature map whose data is
// already fully in DRAM).
func (r *resident) dropBuffer(pool *sram.Pool) error {
	if r.buf == nil {
		return nil
	}
	if r.buf.Pinned() {
		if err := pool.Unpin(r.buf); err != nil {
			return err
		}
	}
	if !r.buf.Freed() {
		if err := pool.Free(r.buf); err != nil {
			return err
		}
	}
	r.buf = nil
	r.onChip = 0
	return nil
}

// consumptionPlan precomputes, per physical layer, which feature maps
// it actually reads. Concat layers are transparent: consuming a concat
// consumes its (recursively expanded) sources, so concatenation is
// pure bank layout and DenseNet-style multi-consumer fan-out works
// without aliasing buffers. It is built once per run, so a step only
// indexes it.
type consumptionPlan struct {
	// sources[i] lists the physical producer indices layer i reads
	// (duplicates preserved: reading the same fmap twice costs twice).
	sources [][]int
	// distinct[i] is sources[i] without duplicates, in first-appearance
	// order. Both are views into one flat array.
	distinct [][]int
	// consumers[p] is the number of distinct physical layers reading
	// p's feature map.
	consumers []int
	// lastUse[p] is the index of the last physical reader (p itself
	// when unread).
	lastUse []int
}

func buildConsumptionPlan(net *nn.Network) consumptionPlan {
	n := len(net.Layers)
	cp := consumptionPlan{
		sources:   make([][]int, n),
		distinct:  make([][]int, n),
		consumers: make([]int, n),
		lastUse:   make([]int, n),
	}
	// Views stay valid if flat regrows: earlier arrays are never
	// written again.
	flat := make([]int, 0, 4*n)
	for _, l := range net.Layers {
		cp.lastUse[l.Index] = l.Index
		if l.Kind == nn.OpInput || l.Kind == nn.OpConcat {
			continue
		}
		start := len(flat)
		for _, in := range l.Inputs {
			flat = appendSources(flat, net, net.Layer(in))
		}
		mid := len(flat)
		flat = appendUniqueInts(flat, flat[start:mid])
		cp.sources[l.Index] = flat[start:mid:mid]
		cp.distinct[l.Index] = flat[mid:len(flat):len(flat)]
		for _, p := range cp.distinct[l.Index] {
			cp.consumers[p]++
			cp.lastUse[p] = l.Index
		}
	}
	return cp
}

// appendSources appends the physical producers behind reading p's
// output: p itself, or for a concat its parts, expanded recursively.
func appendSources(dst []int, net *nn.Network, p *nn.Layer) []int {
	if p.Kind != nn.OpConcat {
		return append(dst, p.Index)
	}
	for _, in := range p.Inputs {
		dst = appendSources(dst, net, net.Layer(in))
	}
	return dst
}

// appendUniqueInts appends the distinct values of s to dst in
// first-appearance order (source lists are tiny, so the quadratic scan
// is fine). s may be a view of dst itself.
func appendUniqueInts(dst, s []int) []int {
	base := len(dst)
	for _, v := range s {
		if !slices.Contains(dst[base:], v) {
			dst = append(dst, v)
		}
	}
	return dst
}
