package smt

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/aed-net/aed/internal/sat"
)

// chooser supplies a generator's choices: *rand.Rand in the quick
// checks, fuzzBytes in the fuzz targets.
type chooser interface{ Intn(n int) int }

// fuzzBytes reads one choice per byte of fuzz input and chooses 0 once
// the input is used up.
type fuzzBytes []byte

func (b *fuzzBytes) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	x := (*b)[0]
	*b = (*b)[1:]
	return int(x) % n
}

// circuit is the reference the gate API is checked against: a tree of
// constants, variables (indices into the test's variable list), ¬, ∧
// and ∨, evaluated directly (eval) and built as gates (build).
type circuit struct {
	op   byte // 'c' constant, 'v' variable, '!', '&' or '|'
	b    bool
	v    int
	kids []*circuit
}

// eval evaluates t with variable i bound to bit i of assignment.
func (t *circuit) eval(assignment uint) bool {
	switch t.op {
	case 'c':
		return t.b
	case 'v':
		return assignment>>uint(t.v)&1 == 1
	case '!':
		return !t.kids[0].eval(assignment)
	}
	for _, k := range t.kids {
		if k.eval(assignment) == (t.op == '|') {
			return t.op == '|'
		}
	}
	return t.op == '&'
}

// builder builds circuits as gates on one context. A circuit node
// built before is not built again: its literal is reused, as an
// encoder passes on the literal of a gate it uses twice.
type builder struct {
	c     *Context
	vars  []sat.Lit
	built map[*circuit]sat.Lit
}

func newBuilder(c *Context, n int) *builder {
	b := &builder{c: c, built: map[*circuit]sat.Lit{}}
	for i := 0; i < n; i++ {
		b.vars = append(b.vars, c.BoolVar())
	}
	return b
}

func (b *builder) lit(t *circuit) sat.Lit {
	if l, ok := b.built[t]; ok {
		return l
	}
	var l sat.Lit
	switch t.op {
	case 'c':
		l = b.c.False()
		if t.b {
			l = b.c.True()
		}
	case 'v':
		l = b.vars[t.v]
	case '!':
		l = b.lit(t.kids[0]).Neg()
	default:
		ls := make([]sat.Lit, len(t.kids))
		for i, k := range t.kids {
			ls[i] = b.lit(k)
		}
		if t.op == '&' {
			l = b.c.And(ls...)
		} else {
			l = b.c.Or(ls...)
		}
	}
	b.built[t] = l
	return l
}

// assume returns the assumptions fixing the variables to assignment.
func (b *builder) assume(assignment uint) []sat.Lit {
	asm := make([]sat.Lit, len(b.vars))
	for i, v := range b.vars {
		asm[i] = v
		if assignment>>uint(i)&1 == 0 {
			asm[i] = v.Neg()
		}
	}
	return asm
}

func node(op byte, kids ...*circuit) *circuit { return &circuit{op: op, kids: kids} }

// randomCircuit draws a circuit over n variables: leaves, ¬, And and Or
// of two or three kids, implications and equivalences.
func randomCircuit(rng chooser, n, depth int) *circuit {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(6) {
		case 0:
			return &circuit{op: 'c', b: true}
		case 1:
			return &circuit{op: 'c'}
		default:
			return &circuit{op: 'v', v: rng.Intn(n)}
		}
	}
	sub := func() *circuit { return randomCircuit(rng, n, depth-1) }
	switch rng.Intn(6) {
	case 0:
		return node('!', sub())
	case 1:
		return node('&', sub(), sub())
	case 2:
		return node('|', sub(), sub(), sub())
	case 3: // a → b
		return node('|', node('!', sub()), sub())
	case 4: // a ⇔ b
		a, b := sub(), sub()
		return node('&', node('|', node('!', a), b), node('|', a, node('!', b)))
	default:
		return node('&', sub(), sub(), sub())
	}
}

// rebuild returns a structurally equal copy of t with fresh nodes, so
// a builder builds its gates again.
func rebuild(t *circuit) *circuit {
	if t.op == 'c' || t.op == 'v' {
		return t
	}
	kids := make([]*circuit, len(t.kids))
	for i, k := range t.kids {
		kids[i] = rebuild(k)
	}
	return &circuit{op: t.op, kids: kids}
}

// constraint is what a caller asserts at the top: clauses over circuit
// literals, the top itself gate-free.
type constraint [][]*circuit

func (k constraint) eval(assignment uint) bool {
	for _, cl := range k {
		ok := false
		for _, t := range cl {
			ok = ok || t.eval(assignment)
		}
		if !ok {
			return false
		}
	}
	return true
}

// clauses builds k's clauses as literal lists.
func (b *builder) clauses(k constraint) [][]sat.Lit {
	out := make([][]sat.Lit, len(k))
	for i, cl := range k {
		for _, t := range cl {
			out[i] = append(out[i], b.lit(t))
		}
	}
	return out
}

// constraintGen draws constraints whose subterms repeat, as the same
// node (its literal reused) or as a structurally equal rebuild (its
// gates built again, nothing merging them).
type constraintGen struct {
	ch   chooser
	n    int
	pool []*circuit
}

func (g *constraintGen) term(depth int) *circuit {
	if len(g.pool) > 0 {
		switch g.ch.Intn(4) {
		case 0:
			return g.pool[g.ch.Intn(len(g.pool))]
		case 1:
			return rebuild(g.pool[g.ch.Intn(len(g.pool))])
		}
	}
	t := randomCircuit(g.ch, g.n, depth)
	g.pool = append(g.pool, t)
	return t
}

// constraint returns one to three clauses of one to three terms each.
func (g *constraintGen) constraint() constraint {
	k := make(constraint, 1+g.ch.Intn(3))
	for i := range k {
		for j := 1 + g.ch.Intn(3); j > 0; j-- {
			k[i] = append(k[i], g.term(1+g.ch.Intn(3)))
		}
	}
	return k
}

// checkGates is the oracle of the gate API and the clause-level
// assertions. It draws two constraints p and f with the choices of a
// fresh chooser, once per context, and asserts them on fresh contexts:
// with Clause, with ClauseUnder under a guard variable, and with
// AssertRetractable. Under every assignment of the variables, fixed by
// assumptions, the solver must be satisfiable exactly when the active
// constraints evaluate true — p ∧ f while both are asserted, active or
// guarded by a true guard, p with f retracted, and anything with both
// retracted or the guard false — and in a model every gate literal must
// read as its circuit evaluates.
func checkGates(t *testing.T, newChooser func() chooser) bool {
	t.Helper()
	setup := func() (*builder, constraint, constraint) {
		ch := newChooser()
		n := 2 + ch.Intn(4)
		g := &constraintGen{ch: ch, n: n}
		p := g.constraint()
		return newBuilder(NewContext(), n), p, g.constraint()
	}
	// check solves under every assignment (and the extra assumptions);
	// active lists the constraints that must hold.
	check := func(step string, b *builder, extra []sat.Lit, active ...constraint) bool {
		t.Helper()
		for a := uint(0); a < 1<<uint(len(b.vars)); a++ {
			want := true
			for _, k := range active {
				want = want && k.eval(a)
			}
			m := b.c.SolveAssuming(append(b.assume(a), extra...)...)
			if (m != nil) != want {
				t.Logf("%s, assignment %b: solver=%v, want %v", step, a, m != nil, want)
				return false
			}
			for tr, l := range b.built {
				if m != nil && m.Bool(l) != tr.eval(a) {
					t.Logf("%s, assignment %b: a gate literal reads %v, its circuit evaluates %v", step, a, m.Bool(l), !m.Bool(l))
					return false
				}
			}
		}
		return true
	}

	b, p, f := setup()
	for _, k := range []constraint{p, f} {
		for _, cl := range b.clauses(k) {
			b.c.Clause(cl...)
		}
	}
	if !check("Clause", b, nil, p, f) {
		return false
	}

	b, p, f = setup()
	g := []sat.Lit{b.c.BoolVar()}
	for _, k := range []constraint{p, f} {
		for _, cl := range b.clauses(k) {
			b.c.ClauseUnder(g, cl...)
		}
	}
	if !check("ClauseUnder, guard true", b, g, p, f) || !check("ClauseUnder, guard false", b, []sat.Lit{g[0].Neg()}) {
		return false
	}

	b, p, f = setup()
	hp := b.c.AssertRetractable(b.clauses(p)...)
	hf := b.c.AssertRetractable(b.clauses(f)...)
	if !check("AssertRetractable", b, nil, p, f) {
		return false
	}
	b.c.Retract(hf)
	if !check("f retracted", b, nil, p) {
		return false
	}
	b.c.Retract(hp)
	if !check("both retracted", b, nil) {
		return false
	}
	b.c.Reassert(hp)
	b.c.Reassert(hf)
	return check("reasserted", b, nil, p, f)
}

// TestQuickTseitinEquisat: for random circuits built as gates and
// asserted as clauses, plainly, under a guard or retractably, the
// solver agrees with evaluation under every assignment of the variables
// (see checkGates).
func TestQuickTseitinEquisat(t *testing.T) {
	f := func(seed int64) bool {
		return checkGates(t, func() chooser { return rand.New(rand.NewSource(seed)) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzAssert is TestQuickTseitinEquisat with the generator's choices
// read from the fuzz input, one byte each (see constraintGen).
func FuzzAssert(f *testing.F) {
	f.Add([]byte{3, 0, 2, 1, 5, 3, 2, 0, 4, 1, 1, 6, 2, 3})
	f.Add([]byte{2, 1, 3, 0, 2, 4, 1, 0, 1, 1, 0, 2})
	f.Add([]byte{1, 2, 1, 3, 0, 3, 2, 2, 1, 1, 0, 4, 0, 3, 3})
	f.Add([]byte{3, 3, 1, 2, 3, 0, 1, 4, 2, 1, 5, 3, 3, 2, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if !checkGates(t, func() chooser { b := fuzzBytes(slices.Clone(data)); return &b }) {
			t.Fail()
		}
	})
}

// TestRebuiltSubtreesAgreeWithBruteForce: on random circuits with
// structurally duplicated subtrees (rebuilt, not shared), whose gates
// are built once per copy, the verdict, the MaxSAT optimum and the
// optimal model agree with brute-force enumeration over the variables.
func TestRebuiltSubtreesAgreeWithBruteForce(t *testing.T) {
	type soft struct {
		t *circuit
		w int
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(seed%3)
		b := newBuilder(NewContext(), n)
		// Each hard constraint is drawn twice from one seed, so the
		// copies are structurally equal but not shared: the first
		// asserted alone, the second in a clause beside a variable.
		var hard []constraint
		for i := 0; i < 3; i++ {
			state := rng.Int63()
			hard = append(hard,
				constraint{{randomCircuit(rand.New(rand.NewSource(state)), n, 4)}},
				constraint{{randomCircuit(rand.New(rand.NewSource(state)), n, 4), {op: 'v', v: i}}})
		}
		softs := make([]soft, 4)
		for i := range softs {
			softs[i] = soft{randomCircuit(rng, n, 3), 1 + rng.Intn(3)}
		}
		for _, k := range hard {
			for _, cl := range b.clauses(k) {
				b.c.Clause(cl...)
			}
		}
		for _, s := range softs {
			b.c.AssertSoft(b.lit(s.t), s.w, "s")
		}

		best := -1 // the brute-force optimum; -1 when unsat
		for a := uint(0); a < 1<<uint(n); a++ {
			ok := true
			for _, k := range hard {
				ok = ok && k.eval(a)
			}
			if !ok {
				continue
			}
			cost := 0
			for _, s := range softs {
				if !s.t.eval(a) {
					cost += s.w
				}
			}
			if best < 0 || cost < best {
				best = cost
			}
		}

		r := b.c.Maximize(LinearDescent)
		if (r.Model != nil) != (best >= 0) || (best >= 0 && r.ViolatedWeight != best) {
			t.Fatalf("seed %d: sat=%v cost=%d, brute force optimum %d (-1: unsat)",
				seed, r.Model != nil, r.ViolatedWeight, best)
		}
		if r.Model == nil {
			continue
		}
		var a uint // the model's assignment of the variables
		for i, v := range b.vars {
			if r.Model.Bool(v) {
				a |= 1 << uint(i)
			}
		}
		cost := 0
		for _, s := range softs {
			if !s.t.eval(a) {
				cost += s.w
			}
		}
		for i, k := range hard {
			if !k.eval(a) {
				t.Fatalf("seed %d: the model violates hard constraint %d", seed, i)
			}
		}
		if cost != best {
			t.Fatalf("seed %d: the model violates weight %d, optimum %d", seed, cost, best)
		}
		for tr, l := range b.built {
			if r.Model.Bool(l) != tr.eval(a) {
				t.Fatalf("seed %d: a gate literal disagrees with its circuit", seed)
			}
		}
	}
}
