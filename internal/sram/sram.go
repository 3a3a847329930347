// Package sram models the on-chip buffer architecture that Shortcut
// Mining is built on: a pool of physical SRAM banks from which
// *logical buffers* are composed at run time.
//
// The package provides exactly the primitives the paper's procedures
// need:
//
//   - logical buffer formation over free banks (procedure P1),
//   - zero-copy role switching, so one layer's output buffer becomes
//     the next layer's input buffer (P2),
//   - pinning, so a shortcut feature map survives across any number of
//     intermediate layers (P3),
//   - incremental bank release, so the element-wise add can recycle
//     consumed shortcut banks into output banks (P4),
//   - partial (best-effort) allocation for graceful spilling when the
//     pool is oversubscribed (P5).
//
// The pool never moves data: a logical buffer is an ordered set of
// bank indices plus a byte count, and every operation preserves that
// mapping. Conservation invariants are checked by CheckInvariants and
// exercised with property-based tests.
package sram

import (
	"errors"
	"fmt"
)

// Role describes what a logical buffer currently holds. Roles carry no
// mechanism — switching them is free — but they drive accounting and
// make traces and invariants legible.
type Role int

const (
	// RoleInput marks the buffer feeding the currently running layer.
	RoleInput Role = iota
	// RoleOutput marks the buffer the current layer writes.
	RoleOutput
	// RoleRetained marks a pinned shortcut feature map waiting for its
	// consumer (the "mined" data).
	RoleRetained
	// RoleScratch marks transient allocations (e.g. pooling halos).
	RoleScratch
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleInput:
		return "input"
	case RoleOutput:
		return "output"
	case RoleRetained:
		return "retained"
	case RoleScratch:
		return "scratch"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// Package errors. Callers branch on these to implement spill policies.
var (
	// ErrInsufficient reports that the pool has too few free banks for
	// a full allocation.
	ErrInsufficient = errors.New("sram: insufficient free banks")
	// ErrPinned reports an operation that is illegal on a pinned
	// buffer (freeing or releasing its banks).
	ErrPinned = errors.New("sram: buffer is pinned")
	// ErrReleased reports use of a buffer after it was freed.
	ErrReleased = errors.New("sram: buffer already freed")
	// ErrBankFailed reports an operation on a bank already retired
	// from service.
	ErrBankFailed = errors.New("sram: bank retired from service")
	// ErrBankOwned reports a retirement attempt on a bank that still
	// holds live data (the caller must migrate or spill first).
	ErrBankOwned = errors.New("sram: bank still owned")
)

// Config sizes a pool.
type Config struct {
	NumBanks  int // physical banks
	BankBytes int // capacity of each bank
}

// TotalBytes is the aggregate pool capacity.
func (c Config) TotalBytes() int64 { return int64(c.NumBanks) * int64(c.BankBytes) }

// BanksFor returns how many banks are needed to hold n bytes.
func (c Config) BanksFor(n int64) int {
	if n <= 0 {
		return 0
	}
	return int((n + int64(c.BankBytes) - 1) / int64(c.BankBytes))
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumBanks <= 0 {
		return fmt.Errorf("sram: NumBanks must be positive, got %d", c.NumBanks)
	}
	if c.BankBytes <= 0 {
		return fmt.Errorf("sram: BankBytes must be positive, got %d", c.BankBytes)
	}
	return nil
}

// Buffer is a logical buffer: an ordered list of banks holding one
// feature map (or a retained prefix of one). Buffers are created and
// owned by a Pool; the zero value is not usable.
type Buffer struct {
	pool *Pool
	id   int
	role Role
	tag  string
	// mem[head:] is the bank list in layout order. Releasing a prefix
	// (P4) advances head instead of copying the suffix down; mem is
	// the whole backing array, which the pool hands to a later buffer
	// once this one is freed.
	mem    []int
	head   int
	bytes  int64 // valid payload bytes, ≤ capacity
	pinned bool
	freed  bool

	// Payload is an optional opaque value the functional-verification
	// mode attaches to prove that role switches and retention preserve
	// data identity without copies. The pool never touches it beyond
	// clearing it on Free.
	Payload any
}

// banks is the live bank list, a view into mem.
func (b *Buffer) banks() []int { return b.mem[b.head:] }

// ID returns the buffer's pool-unique identity.
func (b *Buffer) ID() int { return b.id }

// Role returns the buffer's current role.
func (b *Buffer) Role() Role { return b.role }

// Tag returns the caller-provided identity (typically the producing
// layer's name).
func (b *Buffer) Tag() string { return b.tag }

// Banks returns the buffer's bank indices in layout order. The slice
// is a copy.
func (b *Buffer) Banks() []int { return append([]int(nil), b.banks()...) }

// NumBanks returns how many banks the buffer currently occupies.
func (b *Buffer) NumBanks() int { return len(b.mem) - b.head }

// Bytes returns the valid payload byte count.
func (b *Buffer) Bytes() int64 { return b.bytes }

// CapacityBytes returns the total capacity of the buffer's banks.
func (b *Buffer) CapacityBytes() int64 {
	return int64(b.NumBanks()) * int64(b.pool.cfg.BankBytes)
}

// Pinned reports whether the buffer is pinned.
func (b *Buffer) Pinned() bool { return b.pinned }

// Freed reports whether the buffer has been returned to the pool.
func (b *Buffer) Freed() bool { return b.freed }

// Pool is a physical bank pool. It is not safe for concurrent use; the
// schedulers are single-threaded per accelerator instance, matching
// the single control FSM of the hardware.
//
// In steady state the pool does not allocate: Buffer structs are carved
// from a slab (never reused, so a stale *Buffer still reads as freed),
// and bank lists reuse the backing arrays of freed buffers.
type Pool struct {
	cfg       Config
	owner     []int  // bank -> buffer id, or -1 when free
	free      []int  // free bank indices, LIFO
	failed    []bool // bank -> retired from service (fault injection)
	numFailed int
	buffers   []*Buffer // indexed by ID (IDs are dense); nil once freed
	slab      []Buffer  // unused Buffer structs for the next allocations
	spare     [][]int   // empty bank arrays of freed buffers
	seen      []int     // CheckInvariants scratch: per-bank claimant
	pinned    int       // banks owned by pinned buffers, kept incrementally
	observer  func(usedBanks, pinnedBanks int)

	stats Stats
}

// Stats accumulates pool telemetry for the experiments.
type Stats struct {
	Allocs        int64 `json:"Allocs"`
	PartialAllocs int64 `json:"PartialAllocs"`
	Frees         int64 `json:"Frees"`
	RoleSwitches  int64 `json:"RoleSwitches"`
	Pins          int64 `json:"Pins"`
	BanksRecycled int64 `json:"BanksRecycled"` // banks moved by ReleaseBanks / MoveBanks (P4)
	BanksEvicted  int64 `json:"BanksEvicted"`  // banks moved by ReleaseTailBanks (eviction policies)
	BanksFailed   int64 `json:"BanksFailed"`   // banks retired from service (fault injection)
	Relocations   int64 `json:"Relocations"`   // banks whose contents moved to a spare (RelocateBank)

	PeakUsedBanks   int `json:"PeakUsedBanks"`
	PeakPinnedBanks int `json:"PeakPinnedBanks"`
}

// NewPool builds a pool; all banks start free.
func NewPool(cfg Config) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pool{
		cfg:    cfg,
		owner:  make([]int, cfg.NumBanks),
		free:   make([]int, cfg.NumBanks),
		failed: make([]bool, cfg.NumBanks),
	}
	for i := range p.owner {
		p.owner[i] = -1
		// Pop order low→high keeps layouts deterministic for tests.
		p.free[i] = cfg.NumBanks - 1 - i
	}
	return p, nil
}

// Config returns the pool configuration.
func (p *Pool) Config() Config { return p.cfg }

// FreeBanks returns the number of unowned banks.
func (p *Pool) FreeBanks() int { return len(p.free) }

// UsedBanks returns the number of owned banks.
func (p *Pool) UsedBanks() int { return p.cfg.NumBanks - len(p.free) - p.numFailed }

// FailedBanks returns the number of banks retired from service.
func (p *Pool) FailedBanks() int { return p.numFailed }

// InService returns the number of banks still usable (total minus
// retired) — the effective pool size graceful degradation works with.
func (p *Pool) InService() int { return p.cfg.NumBanks - p.numFailed }

// IsFailed reports whether the bank has been retired from service.
func (p *Pool) IsFailed(bank int) bool {
	return bank >= 0 && bank < len(p.failed) && p.failed[bank]
}

// Owner returns the live buffer owning the bank, or nil when the bank
// is free, failed, or out of range.
func (p *Pool) Owner(bank int) *Buffer {
	if bank < 0 || bank >= len(p.owner) || p.owner[bank] < 0 {
		return nil
	}
	return p.buffers[p.owner[bank]]
}

// FreeBytes returns the free capacity.
func (p *Pool) FreeBytes() int64 { return int64(len(p.free)) * int64(p.cfg.BankBytes) }

// PinnedBanks returns the number of banks owned by pinned buffers.
// The count is maintained incrementally (Pin/Unpin/Grow) so the
// observer hook can sample it on every pool mutation without an O(n)
// scan; CheckInvariants verifies it against the live buffers.
func (p *Pool) PinnedBanks() int { return p.pinned }

// Stats returns a copy of the accumulated telemetry.
func (p *Pool) Stats() Stats { return p.stats }

// RestoreStats overwrites the accumulated telemetry — the
// checkpoint/restore seam. A pool rebuilt from a mid-run snapshot
// continues the original counters and high-water marks (noteUsage
// keeps taking maxima on top), so the finished RunStats is
// bit-identical to an uninterrupted run.
func (p *Pool) RestoreStats(s Stats) { p.stats = s }

// Buffers returns the live buffers sorted by ID (deterministic; used
// by traces and invariant checks).
func (p *Pool) Buffers() []*Buffer {
	var out []*Buffer
	for _, b := range p.buffers {
		if b != nil {
			out = append(out, b)
		}
	}
	return out
}

// newBuffer registers an empty buffer under the next ID, reusing a
// freed buffer's bank array when one is available.
func (p *Pool) newBuffer(role Role, tag string) *Buffer {
	if len(p.slab) == 0 {
		// Geometric slabs: a short run allocates a few structs, a long
		// one amortizes to one allocation per 256 buffers.
		p.slab = make([]Buffer, min(max(len(p.buffers), 8), 256))
	}
	b := &p.slab[0]
	p.slab = p.slab[1:]
	*b = Buffer{pool: p, id: len(p.buffers), role: role, tag: tag}
	if n := len(p.spare); n > 0 {
		b.mem = p.spare[n-1]
		p.spare = p.spare[:n-1]
	} else {
		// A bank list never outgrows the pool, so one full-size array
		// serves every later owner.
		b.mem = make([]int, 0, p.cfg.NumBanks)
	}
	p.buffers = append(p.buffers, b)
	return b
}

// retire unregisters an emptied buffer and keeps its bank array for
// reuse. Callers account Frees themselves.
func (p *Pool) retire(b *Buffer) {
	p.spare = append(p.spare, b.mem[:0])
	p.buffers[b.id] = nil
	b.mem, b.head = nil, 0
	b.bytes = 0
	b.freed = true
	b.Payload = nil
}

// take pops n banks off the free list onto b's tail — most recently
// freed first, exactly as n single-bank pops would order them.
func (p *Pool) take(b *Buffer, n int) {
	top := len(p.free)
	for i := top - 1; i >= top-n; i-- {
		p.owner[p.free[i]] = b.id
		b.mem = append(b.mem, p.free[i])
	}
	p.free = p.free[:top-n]
	if b.pinned {
		p.pinned += n
	}
}

// give pushes banks onto the free list in layout order.
func (p *Pool) give(banks []int) {
	for _, bank := range banks {
		p.owner[bank] = -1
	}
	p.free = append(p.free, banks...)
}

// SetObserver installs a callback fired whenever occupancy may have
// grown (allocation, growth, pinning), receiving the current used and
// pinned bank counts. A nil observer (the default) costs one branch.
// The metrics layer tracks occupancy high-water marks through it.
func (p *Pool) SetObserver(o func(usedBanks, pinnedBanks int)) {
	p.observer = o
}

func (p *Pool) noteUsage() {
	used, pinned := p.UsedBanks(), p.PinnedBanks()
	if used > p.stats.PeakUsedBanks {
		p.stats.PeakUsedBanks = used
	}
	if pinned > p.stats.PeakPinnedBanks {
		p.stats.PeakPinnedBanks = pinned
	}
	if p.observer != nil {
		p.observer(used, pinned)
	}
}

// Alloc forms a logical buffer of exactly `bytes` payload bytes
// (procedure P1). It fails with ErrInsufficient when the pool lacks
// free banks, leaving the pool unchanged.
func (p *Pool) Alloc(role Role, tag string, bytes int64) (*Buffer, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("sram: alloc of %d bytes for %q", bytes, tag)
	}
	need := p.cfg.BanksFor(bytes)
	if need > len(p.free) {
		return nil, fmt.Errorf("%w: need %d banks for %q, have %d", ErrInsufficient, need, tag, len(p.free))
	}
	b := p.newBuffer(role, tag)
	p.take(b, need)
	b.bytes = bytes
	p.stats.Allocs++
	p.noteUsage()
	return b, nil
}

// AllocUpTo forms a logical buffer covering as much of `bytes` as the
// free banks allow (procedure P5, partial retention). It returns the
// buffer (nil when the pool is completely full) and the payload bytes
// actually covered; the caller spills the remainder to DRAM. Unlike
// Alloc it cannot fail: a short pool yields a partial buffer, an empty
// pool yields nil.
func (p *Pool) AllocUpTo(role Role, tag string, bytes int64) (*Buffer, int64) {
	if bytes <= 0 {
		return nil, 0
	}
	n := p.cfg.BanksFor(bytes)
	partial := n > len(p.free)
	if partial {
		n = len(p.free)
	}
	if n == 0 {
		return nil, 0
	}
	got := int64(n) * int64(p.cfg.BankBytes)
	if got > bytes {
		got = bytes
	}
	b := p.newBuffer(role, tag)
	p.take(b, n)
	b.bytes = got
	p.stats.Allocs++
	if partial {
		p.stats.PartialAllocs++
	}
	p.noteUsage()
	return b, got
}

// RetireBank removes a FREE bank from service permanently — the
// predictive-retirement step of the fault model. The bank leaves the
// free list and is never handed out again; the pool operates with a
// smaller effective size from here on. A bank holding live data must
// be migrated first (RelocateBank or a tail spill): retiring an owned
// bank is an error, and retiring twice is an error.
func (p *Pool) RetireBank(bank int) error {
	if bank < 0 || bank >= p.cfg.NumBanks {
		return fmt.Errorf("sram: retire out-of-range bank %d", bank)
	}
	if p.failed[bank] {
		return fmt.Errorf("%w: bank %d", ErrBankFailed, bank)
	}
	if p.owner[bank] != -1 {
		b := p.buffers[p.owner[bank]]
		return fmt.Errorf("%w: bank %d holds %q", ErrBankOwned, bank, b.tag)
	}
	for i, f := range p.free {
		if f == bank {
			p.free = append(p.free[:i], p.free[i+1:]...)
			p.failed[bank] = true
			p.numFailed++
			p.stats.BanksFailed++
			return nil
		}
	}
	return fmt.Errorf("sram: bank %d unowned but not on free list", bank)
}

// RelocateBank migrates the contents of an owned bank onto a spare
// free bank and retires the original — graceful degradation when a
// failing bank still holds live data and the pool has slack. The
// spare takes the failed bank's position in the buffer's layout, so
// payload byte order (and therefore functional-mode data identity) is
// preserved. Fails with ErrInsufficient when no free bank exists; the
// caller then falls back to a P5 tail spill.
func (p *Pool) RelocateBank(b *Buffer, bank int) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if len(p.free) == 0 {
		return fmt.Errorf("%w: no spare bank to relocate bank %d of %q", ErrInsufficient, bank, b.tag)
	}
	pos := -1
	for i, own := range b.banks() {
		if own == bank {
			pos = i
			break
		}
	}
	if pos < 0 {
		return fmt.Errorf("sram: bank %d not owned by %q", bank, b.tag)
	}
	top := len(p.free) - 1
	spare := p.free[top]
	p.free = p.free[:top]
	b.banks()[pos] = spare
	p.owner[spare] = b.id
	p.owner[bank] = -1
	p.failed[bank] = true
	p.numFailed++
	p.stats.BanksFailed++
	p.stats.Relocations++
	// Pinned-bank count is unchanged: same bank count, same buffer.
	p.noteUsage()
	return nil
}

// Free returns the buffer's banks to the pool. Pinned buffers must be
// unpinned first — the scheduler, not the pool, decides when retained
// data is dead.
func (p *Pool) Free(b *Buffer) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if b.pinned {
		return fmt.Errorf("%w: cannot free %q", ErrPinned, b.tag)
	}
	p.give(b.banks())
	p.retire(b)
	p.stats.Frees++
	p.noteUsage()
	return nil
}

// SetRole renames the buffer's role — the zero-copy buffer switching
// of procedure P2. The banks, payload bytes and Payload are untouched.
func (p *Pool) SetRole(b *Buffer, role Role) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if b.role != role {
		b.role = role
		p.stats.RoleSwitches++
	}
	return nil
}

// Retag renames the buffer's feature-map identity (used when an
// in-place consumer such as pooling reuses its input banks).
func (p *Pool) Retag(b *Buffer, tag string) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	b.tag = tag
	return nil
}

// Pin marks the buffer as retained shortcut data (procedure P3): it
// cannot be freed or have banks released until Unpin.
func (p *Pool) Pin(b *Buffer) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if !b.pinned {
		b.pinned = true
		p.pinned += b.NumBanks()
		p.stats.Pins++
		p.noteUsage()
	}
	return nil
}

// Unpin clears the retention mark.
func (p *Pool) Unpin(b *Buffer) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if b.pinned {
		b.pinned = false
		p.pinned -= b.NumBanks()
		p.noteUsage()
	}
	return nil
}

// releasable validates a prefix or tail release of n banks.
func (p *Pool) releasable(b *Buffer, n int, what string) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if b.pinned {
		return fmt.Errorf("%w: cannot release banks of %q", ErrPinned, b.tag)
	}
	if n < 0 || n > b.NumBanks() {
		return fmt.Errorf("sram: release %d of %d %s of %q", n, b.NumBanks(), what, b.tag)
	}
	return nil
}

// dropHead removes the first n banks from b's layout, shrinking the
// payload by the removed capacity; an emptied buffer is freed.
func (p *Pool) dropHead(b *Buffer, n int) {
	b.head += n
	if released := int64(n) * int64(p.cfg.BankBytes); b.bytes > released {
		b.bytes -= released
	} else {
		b.bytes = 0
	}
	p.stats.BanksRecycled += int64(n)
	if b.NumBanks() == 0 {
		p.retire(b)
		p.stats.Frees++
	}
}

// ReleaseBanks returns the first n banks of the buffer to the pool —
// the incremental recycling of procedure P4: as the element-wise add
// consumes the retained shortcut prefix, those banks immediately
// become available for the add's own output. The buffer's payload
// shrinks by the released capacity. Releasing every bank frees the
// buffer.
func (p *Pool) ReleaseBanks(b *Buffer, n int) error {
	if err := p.releasable(b, n, "banks"); err != nil {
		return err
	}
	p.give(b.banks()[:n])
	p.dropHead(b, n)
	return nil
}

// MoveBanks hands the first n banks of src to the tail of dst — the
// bulk form of P4 recycling when the free pool sits at the streaming
// reserve. It leaves exactly the state of n rounds of ReleaseBanks(src,
// 1) followed by a one-bank Grow of dst, each pop taking the bank just
// released: the free list is untouched, src shrinks (and is freed when
// emptied) and dst's payload grows by min(bytes, n banks). dst must
// have no spare capacity, as a buffer still growing toward its size
// does not, and bytes must need all n banks. It returns the payload
// bytes added.
func (p *Pool) MoveBanks(src, dst *Buffer, n int, bytes int64) (int64, error) {
	if err := p.releasable(src, n, "banks"); err != nil {
		return 0, err
	}
	switch {
	case dst.freed:
		return 0, fmt.Errorf("%w: %q", ErrReleased, dst.tag)
	case dst == src:
		return 0, fmt.Errorf("sram: move of %q onto itself", dst.tag)
	case dst.bytes != dst.CapacityBytes():
		return 0, fmt.Errorf("sram: move into %q with spare capacity", dst.tag)
	case n > p.cfg.BanksFor(bytes):
		return 0, fmt.Errorf("sram: move of %d banks for %d bytes into %q", n, bytes, dst.tag)
	}
	if n == 0 {
		return 0, nil
	}
	for _, bank := range src.banks()[:n] {
		p.owner[bank] = dst.id
	}
	dst.mem = append(dst.mem, src.banks()[:n]...)
	if dst.pinned {
		p.pinned += n
	}
	added := min(bytes, int64(n)*int64(p.cfg.BankBytes))
	dst.bytes += added
	p.dropHead(src, n)
	p.noteUsage()
	return added, nil
}

// ReleaseTailBanks returns the LAST n banks of the buffer to the pool,
// keeping the payload prefix intact — the eviction primitive: a
// retained feature map shrinks from its tail, whose bytes the caller
// spills to DRAM. Releasing every bank frees the buffer.
func (p *Pool) ReleaseTailBanks(b *Buffer, n int) error {
	if err := p.releasable(b, n, "tail banks"); err != nil {
		return err
	}
	keep := len(b.mem) - n
	p.give(b.mem[keep:])
	b.mem = b.mem[:keep]
	if c := b.CapacityBytes(); b.bytes > c {
		b.bytes = c
	}
	p.stats.BanksEvicted += int64(n)
	if b.NumBanks() == 0 {
		p.retire(b)
		p.stats.Frees++
	}
	return nil
}

// Grow appends free banks to the buffer until it covers `bytes` more
// payload, returning the payload bytes actually added (bounded by the
// free banks and by existing spare capacity in the last bank). Growing
// is how the add layer's output expands into banks recycled from the
// consumed shortcut operand (P4).
func (p *Pool) Grow(b *Buffer, bytes int64) (int64, error) {
	if b.freed {
		return 0, fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if bytes <= 0 {
		return 0, nil
	}
	// Spare capacity in already-owned banks absorbs payload first.
	added := min(b.CapacityBytes()-b.bytes, bytes)
	bytes -= added
	if n := min(p.cfg.BanksFor(bytes), len(p.free)); n > 0 {
		p.take(b, n)
		added += min(bytes, int64(n)*int64(p.cfg.BankBytes))
	}
	b.bytes += added
	p.noteUsage()
	return added, nil
}

// Merge absorbs the given buffers into a single new logical buffer
// whose banks are the concatenation of theirs — how a hardware concat
// forms its output without moving a byte. The analytical scheduler in
// internal/core models concatenation transparently (consumers read the
// parts directly), so Merge is the hardware-faithful primitive kept
// for alternative schedulers; the source buffers are consumed (they
// read as freed afterwards) and none may be pinned, since their
// retention obligation would transfer to the merged buffer.
func (p *Pool) Merge(role Role, tag string, bufs ...*Buffer) (*Buffer, error) {
	if len(bufs) == 0 {
		return nil, fmt.Errorf("sram: merge of zero buffers for %q", tag)
	}
	for _, b := range bufs {
		if b.freed {
			return nil, fmt.Errorf("%w: merge source %q", ErrReleased, b.tag)
		}
		if b.pinned {
			return nil, fmt.Errorf("%w: merge source %q", ErrPinned, b.tag)
		}
	}
	m := p.newBuffer(role, tag)
	for _, b := range bufs {
		m.mem = append(m.mem, b.banks()...)
		m.bytes += b.bytes
		for _, bank := range b.banks() {
			p.owner[bank] = m.id
		}
		p.retire(b)
	}
	p.stats.Allocs++
	p.noteUsage()
	return m, nil
}

// CheckInvariants verifies bank conservation: every bank is either on
// the free list, owned by exactly one live buffer, or retired from
// service; free-list entries are unique; retired banks are never owned
// or free; and every buffer's payload fits its banks. It allocates
// only when it reports a violation.
func (p *Pool) CheckInvariants() error {
	// seen[bank] is 0 while unclaimed, onFreeList for a free-list
	// entry, and 1+id once buffer id claims it.
	const onFreeList = -1
	if p.seen == nil {
		p.seen = make([]int, p.cfg.NumBanks)
	}
	seen := p.seen
	clear(seen)
	claimant := func(bank int) string {
		if seen[bank] == onFreeList {
			return "free list"
		}
		return fmt.Sprintf("buffer %q", p.buffers[seen[bank]-1].tag)
	}
	claimed := 0
	for _, bank := range p.free {
		if bank < 0 || bank >= p.cfg.NumBanks {
			return fmt.Errorf("sram: free list has out-of-range bank %d", bank)
		}
		if seen[bank] != 0 {
			return fmt.Errorf("sram: bank %d on free list and %s", bank, claimant(bank))
		}
		seen[bank] = onFreeList
		claimed++
		if p.owner[bank] != -1 {
			return fmt.Errorf("sram: free bank %d has owner %d", bank, p.owner[bank])
		}
		if p.failed[bank] {
			return fmt.Errorf("sram: retired bank %d on free list", bank)
		}
	}
	pinned := 0
	for id, b := range p.buffers {
		if b == nil {
			continue
		}
		if b.freed {
			return fmt.Errorf("sram: freed buffer %q still registered", b.tag)
		}
		if b.id != id {
			return fmt.Errorf("sram: buffer id mismatch %d vs %d", b.id, id)
		}
		for _, bank := range b.banks() {
			if bank < 0 || bank >= p.cfg.NumBanks {
				return fmt.Errorf("sram: buffer %q has out-of-range bank %d", b.tag, bank)
			}
			if seen[bank] != 0 {
				return fmt.Errorf("sram: bank %d owned by %q and %s", bank, b.tag, claimant(bank))
			}
			seen[bank] = 1 + b.id
			claimed++
			if p.owner[bank] != b.id {
				return fmt.Errorf("sram: bank %d owner map says %d, buffer is %d", bank, p.owner[bank], b.id)
			}
			if p.failed[bank] {
				return fmt.Errorf("sram: retired bank %d owned by %q", bank, b.tag)
			}
		}
		if b.bytes > b.CapacityBytes() {
			return fmt.Errorf("sram: buffer %q payload %d exceeds capacity %d", b.tag, b.bytes, b.CapacityBytes())
		}
		if b.bytes < 0 {
			return fmt.Errorf("sram: buffer %q negative payload", b.tag)
		}
		if b.pinned {
			pinned += b.NumBanks()
		}
	}
	failed := 0
	for _, f := range p.failed {
		if f {
			failed++
		}
	}
	if failed != p.numFailed {
		return fmt.Errorf("sram: failed-bank count %d, marks say %d", p.numFailed, failed)
	}
	if claimed+failed != p.cfg.NumBanks {
		return fmt.Errorf("sram: %d banks accounted for (+%d retired), pool has %d", claimed, failed, p.cfg.NumBanks)
	}
	if pinned != p.pinned {
		return fmt.Errorf("sram: pinned-bank count %d, buffers say %d", p.pinned, pinned)
	}
	return nil
}
