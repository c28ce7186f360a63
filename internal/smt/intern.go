package smt

import (
	"math/bits"

	"github.com/aed-net/aed/internal/sat"
)

// internTable is the structural intern table: encoded formula nodes by
// structural hash, one open-addressing array of slots. A node's home
// slot is its constructor-computed hash mixed multiplicatively
// (Fibonacci hashing), collisions probe linearly, and the table doubles
// at 3/4 load. Each slot also keeps the low 32 bits of the node's hash,
// so a probe past a different node usually rejects it without loading
// the node. The zero value is an empty table.
type internTable struct {
	slots []internEntry // len is 0 or a power of two
	n     int           // occupied slots
	shift uint          // 64 - log2(len(slots))
}

// internEntry is one slot: an encoded formula node (nil when the slot
// is free), the low half of its structural hash and its definitional
// literal.
type internEntry struct {
	f   *Formula
	tag uint32
	lit sat.Lit
}

const (
	// internMul is 2^64 divided by the golden ratio, the multiplier of
	// Fibonacci hashing: the top bits of hash*internMul spread even
	// hashes that differ only in their high bits.
	internMul = 0x9E3779B97F4A7C15
	// internMinSlots is the table's size on first insert.
	internMinSlots = 256
)

func (t *internTable) home(h uint64) int { return int((h * internMul) >> t.shift) }

// lookup returns the literal of the interned node structurally equal to
// f, if there is one. There is at most one: a node is inserted only
// after a lookup missed.
func (t *internTable) lookup(f *Formula) (sat.Lit, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	tag := uint32(f.hash)
	for i := t.home(f.hash); ; i = (i + 1) & mask {
		e := &t.slots[i]
		if e.f == nil {
			return 0, false
		}
		if e.tag == tag && structEq(e.f, f) {
			return e.lit, true
		}
	}
}

// insert interns f with literal l; f must not be interned yet.
func (t *internTable) insert(f *Formula, l sat.Lit) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.resize(max(2*len(t.slots), internMinSlots))
	}
	t.put(internEntry{f: f, tag: uint32(f.hash), lit: l})
	t.n++
}

// reserve sizes the table to hold n nodes below 3/4 load.
func (t *internTable) reserve(n int) {
	size := internMinSlots
	for 3*size < 4*n {
		size *= 2
	}
	if size > len(t.slots) {
		t.resize(size)
	}
}

// resize rehashes the table into size slots, a power of two.
func (t *internTable) resize(size int) {
	old := t.slots
	t.slots = make([]internEntry, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e.f != nil {
			t.put(e)
		}
	}
}

// put stores e in the first free slot from its home slot on.
func (t *internTable) put(e internEntry) {
	mask := len(t.slots) - 1
	i := t.home(e.f.hash)
	for t.slots[i].f != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = e
}
