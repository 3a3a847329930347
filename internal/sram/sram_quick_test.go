package sram

import (
	"fmt"
	"testing"
	"testing/quick"
)

// opCode drives the randomized pool exerciser. Each byte of the quick
// input decodes into one pool operation applied to a live buffer (or an
// allocation when none applies).
type opCode byte

const (
	opAlloc opCode = iota
	opAllocUpTo
	opFree
	opSwitch
	opPin
	opUnpin
	opRelease
	opCount
)

// applyOps replays a random operation tape against a fresh pool and
// checks invariants after every step. It returns an error describing
// the first violation.
func applyOps(numBanks, bankBytes int, tape []byte) error {
	p, err := NewPool(Config{NumBanks: numBanks, BankBytes: bankBytes})
	if err != nil {
		return err
	}
	var live []*Buffer
	pick := func(b byte) *Buffer {
		if len(live) == 0 {
			return nil
		}
		return live[int(b)%len(live)]
	}
	drop := func(target *Buffer) {
		for i, b := range live {
			if b == target {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	for i := 0; i+1 < len(tape); i += 2 {
		op, arg := opCode(tape[i])%opCount, tape[i+1]
		switch op {
		case opAlloc:
			bytes := int64(arg%7+1) * int64(bankBytes) / 2
			if bytes == 0 {
				bytes = 1
			}
			b, err := p.Alloc(Role(arg%4), fmt.Sprintf("fm%d", i), bytes)
			if err == nil {
				live = append(live, b)
			}
		case opAllocUpTo:
			bytes := int64(arg%9+1) * int64(bankBytes)
			if b, got := p.AllocUpTo(RoleRetained, fmt.Sprintf("sc%d", i), bytes); b != nil {
				if got <= 0 || got > bytes {
					return fmt.Errorf("step %d: AllocUpTo returned %d of %d", i, got, bytes)
				}
				live = append(live, b)
			}
		case opFree:
			if b := pick(arg); b != nil && !b.Pinned() {
				if err := p.Free(b); err != nil {
					return fmt.Errorf("step %d: %v", i, err)
				}
				drop(b)
			}
		case opSwitch:
			if b := pick(arg); b != nil {
				if err := p.SetRole(b, Role(arg%4)); err != nil {
					return fmt.Errorf("step %d: %v", i, err)
				}
			}
		case opPin:
			if b := pick(arg); b != nil {
				if err := p.Pin(b); err != nil {
					return fmt.Errorf("step %d: %v", i, err)
				}
			}
		case opUnpin:
			if b := pick(arg); b != nil {
				if err := p.Unpin(b); err != nil {
					return fmt.Errorf("step %d: %v", i, err)
				}
			}
		case opRelease:
			if b := pick(arg); b != nil && !b.Pinned() {
				n := int(arg) % (b.NumBanks() + 1)
				if err := p.ReleaseBanks(b, n); err != nil {
					return fmt.Errorf("step %d: %v", i, err)
				}
				if b.Freed() {
					drop(b)
				}
			}
		}
		if err := p.CheckInvariants(); err != nil {
			return fmt.Errorf("step %d (op %d): %v", i, op, err)
		}
		if p.FreeBanks()+p.UsedBanks() != numBanks {
			return fmt.Errorf("step %d: bank conservation broken: %d+%d != %d",
				i, p.FreeBanks(), p.UsedBanks(), numBanks)
		}
	}
	// Drain: everything must be freeable and the pool must return to
	// its initial state.
	for _, b := range live {
		if b.Pinned() {
			if err := p.Unpin(b); err != nil {
				return err
			}
		}
		if err := p.Free(b); err != nil {
			return err
		}
	}
	if p.FreeBanks() != numBanks {
		return fmt.Errorf("drain left %d of %d banks free", p.FreeBanks(), numBanks)
	}
	return p.CheckInvariants()
}

func TestQuickPoolInvariants(t *testing.T) {
	f := func(tape []byte, banks, bankKB uint8) bool {
		nb := int(banks%32) + 1
		bb := (int(bankKB%8) + 1) * 256
		if err := applyOps(nb, bb, tape); err != nil {
			t.Logf("banks=%d bankBytes=%d: %v", nb, bb, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickAllocNeverOverlaps(t *testing.T) {
	// Property: any sequence of full allocations yields disjoint bank
	// sets whose union size equals the used-bank count.
	f := func(sizes []uint16) bool {
		p, err := NewPool(Config{NumBanks: 64, BankBytes: 512})
		if err != nil {
			return false
		}
		owned := map[int]bool{}
		total := 0
		for i, s := range sizes {
			bytes := int64(s%4096) + 1
			b, err := p.Alloc(RoleInput, fmt.Sprintf("f%d", i), bytes)
			if err != nil {
				break
			}
			for _, bank := range b.Banks() {
				if owned[bank] {
					return false
				}
				owned[bank] = true
			}
			total += b.NumBanks()
		}
		return total == p.UsedBanks() && len(owned) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickReleasePreservesSuffix(t *testing.T) {
	// Property: ReleaseBanks(n) leaves exactly the bank suffix and the
	// payload shrinks by the released capacity (clamped at zero).
	f := func(nBanks, rel uint8) bool {
		p, err := NewPool(Config{NumBanks: 32, BankBytes: 1024})
		if err != nil {
			return false
		}
		n := int(nBanks%16) + 1
		payload := int64(n)*1024 - 100
		b, err := p.Alloc(RoleRetained, "sc", payload)
		if err != nil {
			return false
		}
		before := b.Banks()
		r := int(rel) % (n + 1)
		if err := p.ReleaseBanks(b, r); err != nil {
			return false
		}
		if r == n {
			return b.Freed() && p.FreeBanks() == 32
		}
		after := b.Banks()
		if len(after) != n-r {
			return false
		}
		for i := range after {
			if after[i] != before[r+i] {
				return false
			}
		}
		wantBytes := payload - int64(r)*1024
		if wantBytes < 0 {
			wantBytes = 0
		}
		return b.Bytes() == wantBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// refPool is the bank-at-a-time pool the bulk primitives replace:
// every bank moves through the free list one pop or push at a time,
// and every release copies the surviving bank list. The equivalence
// property below drives it and a Pool with the same tape.
type refPool struct {
	bankBytes   int64
	free        []int
	owner       []int
	bufs        map[int]*refBuf
	nextID      int
	pinned      int
	stats       Stats
	maxObserved [2]int // observer maxima: used, pinned
	numBanks    int
}

type refBuf struct {
	banks  []int
	bytes  int64
	pinned bool
}

func newRefPool(numBanks, bankBytes int) *refPool {
	r := &refPool{bankBytes: int64(bankBytes), owner: make([]int, numBanks), bufs: map[int]*refBuf{}, numBanks: numBanks}
	for i := range r.owner {
		r.owner[i] = -1
		r.free = append(r.free, numBanks-1-i)
	}
	return r
}

func (r *refPool) noteUsage() {
	used := r.numBanks - len(r.free)
	r.stats.PeakUsedBanks = max(r.stats.PeakUsedBanks, used)
	r.stats.PeakPinnedBanks = max(r.stats.PeakPinnedBanks, r.pinned)
	r.maxObserved = [2]int{max(r.maxObserved[0], used), max(r.maxObserved[1], r.pinned)}
}

func (r *refPool) pop(id int) int {
	bank := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	r.owner[bank] = id
	return bank
}

func (r *refPool) push(bank int) {
	r.owner[bank] = -1
	r.free = append(r.free, bank)
}

func (r *refPool) alloc(bytes int64) int {
	b := &refBuf{bytes: bytes}
	id := r.nextID
	r.nextID++
	for n := (bytes + r.bankBytes - 1) / r.bankBytes; n > 0; n-- {
		b.banks = append(b.banks, r.pop(id))
	}
	r.bufs[id] = b
	r.stats.Allocs++
	r.noteUsage()
	return id
}

func (r *refPool) free1(id int) {
	for _, bank := range r.bufs[id].banks {
		r.push(bank)
	}
	delete(r.bufs, id)
	r.stats.Frees++
	r.noteUsage()
}

// grow is the old Grow: spare capacity first, then one bank per pop.
func (r *refPool) grow(id int, bytes int64) int64 {
	b := r.bufs[id]
	added := min(int64(len(b.banks))*r.bankBytes-b.bytes, bytes)
	bytes -= added
	for bytes > 0 && len(r.free) > 0 {
		b.banks = append(b.banks, r.pop(id))
		if b.pinned {
			r.pinned++
		}
		chunk := min(r.bankBytes, bytes)
		added += chunk
		bytes -= chunk
	}
	b.bytes += added
	r.noteUsage()
	return added
}

// release1 is the old ReleaseBanks(b, 1), copy included.
func (r *refPool) release1(id int) {
	b := r.bufs[id]
	r.push(b.banks[0])
	b.banks = append([]int(nil), b.banks[1:]...)
	b.bytes = max(b.bytes-r.bankBytes, 0)
	r.stats.BanksRecycled++
	if len(b.banks) == 0 {
		delete(r.bufs, id)
		r.stats.Frees++
	}
}

func (r *refPool) releaseTail(id, n int) {
	b := r.bufs[id]
	keep := len(b.banks) - n
	for _, bank := range b.banks[keep:] {
		r.push(bank)
	}
	b.banks = append([]int(nil), b.banks[:keep]...)
	b.bytes = min(b.bytes, int64(keep)*r.bankBytes)
	r.stats.BanksEvicted += int64(n)
	if keep == 0 {
		delete(r.bufs, id)
		r.stats.Frees++
	}
}

func (r *refPool) setPin(id int, pin bool) {
	b := r.bufs[id]
	if b.pinned == pin {
		return
	}
	b.pinned = pin
	if pin {
		r.pinned += len(b.banks)
		r.stats.Pins++
	} else {
		r.pinned -= len(b.banks)
	}
	r.noteUsage()
}

// diff reports the first difference between the pool and the model.
func (r *refPool) diff(p *Pool, maxObserved [2]int) error {
	if fmt.Sprint(p.free) != fmt.Sprint(r.free) {
		return fmt.Errorf("free list %v, bank-at-a-time %v", p.free, r.free)
	}
	if fmt.Sprint(p.owner) != fmt.Sprint(r.owner) {
		return fmt.Errorf("owner map %v, bank-at-a-time %v", p.owner, r.owner)
	}
	if p.Stats() != r.stats {
		return fmt.Errorf("stats %+v, bank-at-a-time %+v", p.Stats(), r.stats)
	}
	if maxObserved != r.maxObserved {
		return fmt.Errorf("observer max %v, bank-at-a-time %v", maxObserved, r.maxObserved)
	}
	live := p.Buffers()
	if len(live) != len(r.bufs) {
		return fmt.Errorf("%d live buffers, bank-at-a-time %d", len(live), len(r.bufs))
	}
	for _, b := range live {
		rb, ok := r.bufs[b.ID()]
		if !ok {
			return fmt.Errorf("buffer %d live, bank-at-a-time freed it", b.ID())
		}
		if fmt.Sprint(b.Banks()) != fmt.Sprint(rb.banks) || b.Bytes() != rb.bytes || b.Pinned() != rb.pinned {
			return fmt.Errorf("buffer %d: banks %v bytes %d pinned %v, bank-at-a-time %v/%d/%v",
				b.ID(), b.Banks(), b.Bytes(), b.Pinned(), rb.banks, rb.bytes, rb.pinned)
		}
	}
	return nil
}

// applyBulkOps replays a tape against a Pool and the bank-at-a-time
// model, comparing the full pool state after every step. hits counts
// the operations that took effect, by op code.
func applyBulkOps(numBanks, bankBytes int, tape []byte, hits *[8]int) error {
	p, err := NewPool(Config{NumBanks: numBanks, BankBytes: bankBytes})
	if err != nil {
		return err
	}
	var maxObserved [2]int
	p.SetObserver(func(used, pinned int) {
		maxObserved = [2]int{max(maxObserved[0], used), max(maxObserved[1], pinned)}
	})
	ref := newRefPool(numBanks, bankBytes)
	bb := int64(bankBytes)
	var live []*Buffer
	pick := func(b byte) *Buffer {
		if len(live) == 0 {
			return nil
		}
		return live[int(b)%len(live)]
	}
	prune := func() {
		kept := live[:0]
		for _, b := range live {
			if !b.Freed() {
				kept = append(kept, b)
			}
		}
		live = kept
	}
	for i := 0; i+2 < len(tape); i += 3 {
		op, a1, a2 := tape[i]%8, tape[i+1], tape[i+2]
		switch op {
		case 0, 1: // Alloc, whose bank list may be a reused one
			bytes := int64(a1%6+1) * bb
			if a2%2 == 1 {
				bytes -= int64(a2) // a partly filled last bank
			}
			if b, err := p.Alloc(RoleOutput, "fm", bytes); err == nil {
				live = append(live, b)
				ref.alloc(bytes)
				hits[op]++
			}
		case 2: // Free
			if b := pick(a1); b != nil && !b.Pinned() {
				ref.free1(b.ID())
				hits[op]++
				if err := p.Free(b); err != nil {
					return fmt.Errorf("step %d: %v", i, err)
				}
			}
		case 3: // bulk Grow vs bank-by-bank growth
			if b := pick(a1); b != nil {
				bytes := int64(a2%5)*bb + int64(a1)
				want := ref.grow(b.ID(), bytes)
				hits[op]++
				if got, err := p.Grow(b, bytes); err != nil || got != want {
					return fmt.Errorf("step %d: Grow added %d (%v), bank-at-a-time %d", i, got, err, want)
				}
			}
		case 4: // head-offset ReleaseBanks(n) vs n single releases
			if b := pick(a1); b != nil && !b.Pinned() {
				n := int(a2) % (b.NumBanks() + 1)
				for k := 0; k < n; k++ {
					ref.release1(b.ID())
				}
				hits[op]++
				if err := p.ReleaseBanks(b, n); err != nil {
					return fmt.Errorf("step %d: %v", i, err)
				}
			}
		case 5: // ReleaseTailBanks
			if b := pick(a1); b != nil && !b.Pinned() {
				n := int(a2) % (b.NumBanks() + 1)
				ref.releaseTail(b.ID(), n)
				hits[op]++
				if err := p.ReleaseTailBanks(b, n); err != nil {
					return fmt.Errorf("step %d: %v", i, err)
				}
			}
		case 6: // bulk P4 move vs release-one, grow-one rounds
			src := pick(a1)
			var dst *Buffer
			for k := range live { // the next full buffer after src
				if b := pick(a1 + byte(k) + 1); b != src && b.Bytes() == b.CapacityBytes() {
					dst = b
					break
				}
			}
			if dst == nil || src.Pinned() {
				break
			}
			n := int(a1^a2) % (src.NumBanks() + 1)
			bytes := int64(n)*bb - int64(a1)%bb
			hits[op]++
			var want int64
			for k, left := 0, bytes; k < n && left > 0; k++ {
				ref.release1(src.ID())
				step := ref.grow(dst.ID(), min(left, bb))
				want += step
				left -= step
			}
			if got, err := p.MoveBanks(src, dst, n, bytes); err != nil || got != want {
				return fmt.Errorf("step %d: MoveBanks added %d (%v), bank-at-a-time %d", i, got, err, want)
			}
		case 7: // Pin / Unpin
			if b := pick(a1); b != nil {
				pin := a2%2 == 0
				ref.setPin(b.ID(), pin)
				hits[op]++
				if pin {
					err = p.Pin(b)
				} else {
					err = p.Unpin(b)
				}
				if err != nil {
					return fmt.Errorf("step %d: %v", i, err)
				}
			}
		}
		prune()
		if err := p.CheckInvariants(); err != nil {
			return fmt.Errorf("step %d (op %d): %v", i, op, err)
		}
		if err := ref.diff(p, maxObserved); err != nil {
			return fmt.Errorf("step %d (op %d): %v", i, op, err)
		}
	}
	return nil
}

// TestQuickBulkMatchesBankAtATime: bulk Grow, the bulk P4 move, reused
// bank arrays and head-offset release leave the same per-buffer bank
// order, free-list order, owner map, Stats (peaks included) and
// observer maximum as the bank-at-a-time sequences they replace.
func TestQuickBulkMatchesBankAtATime(t *testing.T) {
	var hits [8]int
	f := func(t1, t2, t3 []byte, banks, bankKB uint8) bool {
		nb := int(banks%32) + 1
		bb := (int(bankKB%8) + 1) * 256
		tape := append(append(t1, t2...), t3...) // quick keeps each slice short
		if err := applyBulkOps(nb, bb, tape, &hits); err != nil {
			t.Logf("banks=%d bankBytes=%d: %v", nb, bb, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	t.Logf("applied operations by op code: %v", hits)
	for op, n := range hits {
		if n < 100 {
			t.Errorf("op %d applied only %d times: the property barely exercises it", op, n)
		}
	}
}
