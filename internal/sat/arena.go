package sat

import "math"

// CRef is a clause reference: the index of a clause header inside the
// arena's flat slab, or a tagged binary clause (see binTag). Replacing *clause pointers with 32-bit refs halves
// the watcher size, removes one pointer chase per propagation step, and
// lets the whole clause database live in one allocation that the
// compacting GC can defragment (MiniSat/Glucose "ClauseAllocator"
// lineage).
type CRef uint32

// CRefUndef is the nil clause reference (no antecedent / deleted).
const CRefUndef CRef = ^CRef(0)

// binTag marks a CRef that names a binary clause rather than an arena
// slot. A 2-literal clause is never stored in the arena: it lives only
// as its two watchers, and the tagged ref carries one of its literals.
// The clause x ∨ y is watcher{binRef(x), y} in the watch list of ¬x
// and watcher{binRef(y), x} in that of ¬y, so when x becomes false the
// watcher alone implies its blocker y with reason binRef(x): a binary
// reason is the tagged literal other than the one it implied.
const binTag CRef = 1 << 31

// binRef returns the tagged ref that carries literal l of a binary
// clause.
func binRef(l Lit) CRef { return binTag | CRef(l) }

// binary reports whether c names a binary clause; CRefUndef does not.
func (c CRef) binary() bool { return c&binTag != 0 && c != CRefUndef }

// lit returns the literal a binary ref carries.
func (c CRef) lit() Lit { return Lit(c &^ binTag) }

// Arena clause layout, in 32-bit words of the data slab:
//
//	┌──────────────────────────────┬ CRef points here
//	│ header: size<<1 | learntBit  │
//	├──────────────────────────────┤ learnt clauses only:
//	│ LBD (literal block distance) │
//	│ activity (float32 bits)      │
//	├──────────────────────────────┤
//	│ lit[0] … lit[size-1]         │ watched literals are lit[0], lit[1]
//	└──────────────────────────────┘
//
// Problem clauses carry a 1-word header, learnt clauses 3 words. Only
// clauses of three or more literals live here (binary clauses are
// watchers only, see binTag). A size-0 header marks a clause forwarded
// during GC; the following word then holds the new CRef (size 0 is
// never a live clause).
const (
	hdrLearntBit = 1
	learntHdr    = 3
	problemHdr   = 1
)

// arena is the flat clause slab. data is []Lit (int32) so literal
// slices can be handed out without unsafe reinterpretation; header
// words are stored as bit-cast Lits.
type arena struct {
	data []Lit
	// wasted counts slab words occupied by freed clauses; the GC runs
	// when it exceeds a fifth of the slab (see Solver.garbageCollect).
	wasted int
}

// alloc copies lits into the slab and returns the new clause's ref.
func (a *arena) alloc(lits []Lit, learnt bool, lbd int) CRef {
	c := CRef(len(a.data))
	hdr := Lit(len(lits) << 1)
	if learnt {
		hdr |= hdrLearntBit
		a.data = append(a.data, hdr, Lit(lbd), 0)
	} else {
		a.data = append(a.data, hdr)
	}
	a.data = append(a.data, lits...)
	return c
}

func (a *arena) size(c CRef) int    { return int(a.data[c]) >> 1 }
func (a *arena) learnt(c CRef) bool { return a.data[c]&hdrLearntBit != 0 }
func (a *arena) words(c CRef) int {
	n := a.size(c)
	if a.learnt(c) {
		return learntHdr + n
	}
	return problemHdr + n
}

// lits returns the clause's literal slice as a view into the slab;
// propagation reorders the watched literals in place through it.
func (a *arena) lits(c CRef) []Lit {
	start := int(c) + problemHdr
	if a.learnt(c) {
		start = int(c) + learntHdr
	}
	return a.data[start : start+a.size(c)]
}

func (a *arena) lbd(c CRef) int { return int(a.data[c+1]) }

func (a *arena) setLBD(c CRef, lbd int) { a.data[c+1] = Lit(lbd) }

func (a *arena) activity(c CRef) float32 {
	return math.Float32frombits(uint32(a.data[c+2]))
}

func (a *arena) setActivity(c CRef, act float32) {
	a.data[c+2] = Lit(int32(math.Float32bits(act)))
}

// free marks c's words as garbage; the slab space is reclaimed by the
// next compaction.
func (a *arena) free(c CRef) { a.wasted += a.words(c) }

// bytes returns the slab size in bytes.
func (a *arena) bytes() int64 { return int64(len(a.data)) * 4 }

// forwarded reports whether c was moved by a compaction in progress.
func (a *arena) forwarded(c CRef) bool { return a.data[c] == 0 }

// reloc copies c into the destination arena (once) and returns its new
// ref; the old header is overwritten with a forwarding record so every
// alias (watchers, reasons, clause lists) relocates to the same copy.
func (a *arena) reloc(c CRef, to *arena) CRef {
	if a.forwarded(c) {
		return CRef(a.data[c+1])
	}
	nc := CRef(len(to.data))
	end := int(c) + a.words(c)
	to.data = append(to.data, a.data[c:end]...)
	a.data[c] = 0
	a.data[c+1] = Lit(nc)
	return nc
}
