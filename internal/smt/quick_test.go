package smt

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// chooser supplies a formula generator's choices: *rand.Rand in the
// quick checks, fuzzBytes in the fuzz targets.
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

// randomFormula builds an arbitrary formula over vars.
func randomFormula(rng chooser, vars []*Formula, depth int) *Formula {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(6) {
		case 0:
			return TrueF
		case 1:
			return FalseF
		default:
			return vars[rng.Intn(len(vars))]
		}
	}
	switch rng.Intn(5) {
	case 0:
		return Not(randomFormula(rng, vars, depth-1))
	case 1:
		return And(randomFormula(rng, vars, depth-1), randomFormula(rng, vars, depth-1))
	case 2:
		return Or(randomFormula(rng, vars, depth-1), randomFormula(rng, vars, depth-1))
	case 3:
		return Implies(randomFormula(rng, vars, depth-1), randomFormula(rng, vars, depth-1))
	default:
		return Iff(randomFormula(rng, vars, depth-1), randomFormula(rng, vars, depth-1))
	}
}

// evalUnder evaluates f with vars[i] bound to bits of assignment.
func evalUnder(f *Formula, vars []*Formula, assignment uint) bool {
	switch f.op {
	case opConst:
		return f.b
	case opVar:
		for i, v := range vars {
			if v.v == f.v {
				return assignment>>uint(i)&1 == 1
			}
		}
		panic("unknown var")
	case opNot:
		return !evalUnder(f.kids[0], vars, assignment)
	case opAnd:
		for _, k := range f.kids {
			if !evalUnder(k, vars, assignment) {
				return false
			}
		}
		return true
	case opOr:
		for _, k := range f.kids {
			if evalUnder(k, vars, assignment) {
				return true
			}
		}
		return false
	}
	panic("unknown op")
}

// loweredGen builds formulas in the shapes Assert lowers straight to
// clauses — guarded conjunctions, Iff, negated disjunctions, several
// conjunction kids under one disjunction — over subterms that repeat,
// as the same node or as a structurally equal rebuild, so the lowering
// meets conjunctions that already have a literal through the node memo
// and structural duplicates that nothing merges.
type loweredGen struct {
	ch   chooser
	vars []*Formula
	pool []*Formula
}

// term returns a subterm: a repeat of an earlier one, a rebuild of an
// earlier one, or a fresh random formula of at most the given depth.
func (g *loweredGen) term(depth int) *Formula {
	if len(g.pool) > 0 {
		switch g.ch.Intn(4) {
		case 0:
			return g.pool[g.ch.Intn(len(g.pool))]
		case 1:
			return rebuild(g.pool[g.ch.Intn(len(g.pool))])
		}
	}
	f := randomFormula(g.ch, g.vars, depth)
	g.pool = append(g.pool, f)
	return f
}

func (g *loweredGen) formula() *Formula {
	switch g.ch.Intn(7) {
	case 0: // the encoder's guarded binding
		return Implies(And(g.term(1), g.term(2)),
			And(Or(g.term(1), g.term(1)), Or(g.term(2), g.term(1)), g.term(2)))
	case 1:
		return Iff(g.term(2), Or(g.term(1), g.term(2), g.term(1)))
	case 2:
		return Not(Or(g.term(2), g.term(1), g.term(2)))
	case 3: // two conjunction kids and a spliced negated conjunction
		return Or(And(g.term(1), g.term(2)), Not(Or(g.term(1), g.term(1), g.term(1))),
			Not(And(g.term(1), g.term(2))), g.term(1))
	case 4:
		return And(g.formula(), g.term(2))
	case 5:
		return g.term(3)
	default:
		return randomFormula(g.ch, g.vars, 4)
	}
}

// rebuild returns a copy of f with fresh gate nodes: structurally equal
// to f, but with a node memo of its own.
func rebuild(f *Formula) *Formula {
	if f.op == opConst || f.op == opVar {
		return f
	}
	kids := make([]*Formula, len(f.kids))
	for i, k := range f.kids {
		kids[i] = rebuild(k)
	}
	return &Formula{op: f.op, kids: kids}
}

// checkLowering is the oracle of the clausal lowering. It generates two
// formulas p and f with the choices of a fresh chooser, once per
// context, and asserts them on fresh contexts: with Assert, and with
// AssertRetractable. Under every assignment of the named variables,
// fixed by assumptions, the solver must be satisfiable exactly when the
// asserted formulas evaluate true — p ∧ f while both are asserted or
// active, p with f retracted, and anything with both retracted — and a
// model must satisfy what is asserted.
func checkLowering(t *testing.T, newChooser func() chooser) bool {
	t.Helper()
	setup := func() (*Context, []*Formula, *Formula, *Formula) {
		ch := newChooser()
		c := NewContext()
		vars := make([]*Formula, 2+ch.Intn(4))
		for i := range vars {
			vars[i] = c.BoolVar()
		}
		g := &loweredGen{ch: ch, vars: vars}
		p := g.formula()
		return c, vars, p, g.formula()
	}
	// check solves under every assignment; want reports whether the
	// active assertions hold under it.
	check := func(step string, c *Context, vars, active []*Formula) bool {
		t.Helper()
		asm := make([]*Formula, len(vars))
		for a := uint(0); a < 1<<uint(len(vars)); a++ {
			want := true
			for _, f := range active {
				want = want && evalUnder(f, vars, a)
			}
			for i, v := range vars {
				asm[i] = v
				if a>>uint(i)&1 == 0 {
					asm[i] = Not(v)
				}
			}
			m := c.SolveAssuming(asm...)
			if (m != nil) != want {
				t.Logf("%s, assignment %b: solver=%v, want %v, asserted %v", step, a, m != nil, want, active)
				return false
			}
			for _, f := range active {
				if m != nil && !m.Eval(f) {
					t.Logf("%s, assignment %b: model violates %s", step, a, f)
					return false
				}
			}
		}
		return true
	}

	c, vars, p, f := setup()
	c.Assert(p)
	c.Assert(f)
	if !check("Assert", c, vars, []*Formula{p, f}) {
		return false
	}

	c, vars, p, f = setup()
	hp := c.AssertRetractable(p)
	hf := c.AssertRetractable(f)
	if !check("AssertRetractable", c, vars, []*Formula{p, f}) {
		return false
	}
	c.Retract(hf)
	if !check("f retracted", c, vars, []*Formula{p}) {
		return false
	}
	c.Retract(hp)
	if !check("both retracted", c, vars, nil) {
		return false
	}
	c.Reassert(hp)
	c.Reassert(hf)
	return check("reasserted", c, vars, []*Formula{p, f})
}

// TestQuickTseitinEquisat: for random formulas, asserted plainly or
// retractably, the solver agrees with evaluation under every assignment
// of the named variables (see checkLowering).
func TestQuickTseitinEquisat(t *testing.T) {
	f := func(seed int64) bool {
		return checkLowering(t, func() chooser { return rand.New(rand.NewSource(seed)) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzAssert is TestQuickTseitinEquisat with the generator's choices
// read from the fuzz input, one byte each (see loweredGen.formula for
// the shapes the first choices pick).
func FuzzAssert(f *testing.F) {
	f.Add([]byte{3, 0, 2, 1, 5, 3, 2, 0, 4, 1, 1, 6, 2, 3})
	f.Add([]byte{2, 1, 3, 0, 2, 4, 1, 0, 1, 1, 0, 2})
	f.Add([]byte{1, 2, 1, 3, 0, 3, 2, 2, 1, 1, 0, 4, 0, 3, 3})
	f.Add([]byte{3, 3, 1, 2, 3, 0, 1, 4, 2, 1, 5, 3, 3, 2, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if !checkLowering(t, func() chooser { b := fuzzBytes(slices.Clone(data)); return &b }) {
			t.Fail()
		}
	})
}

// TestQuickIntVarComparisons: IntEq, IntLt, IntLe, IntGt and IntGe with
// offsets, and the memoized threshold comparisons with a constant, agree
// with integer arithmetic for random domains and forced values.
func TestQuickIntVarComparisons(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		domA := randDomain(rng)
		domB := randDomain(rng)
		va := domA[rng.Intn(len(domA))]
		vb := domB[rng.Intn(len(domB))]
		da, db := rng.Intn(5)-2, rng.Intn(5)-2
		k := rng.Intn(14) - 1

		type cmp struct {
			build func(a, b *IntVar) *Formula
			want  bool
		}
		cases := []cmp{
			{func(a, b *IntVar) *Formula { return IntEq(a, b, da, db) }, va+da == vb+db},
			{func(a, b *IntVar) *Formula { return IntLt(a, b, da, db) }, va+da < vb+db},
			{func(a, b *IntVar) *Formula { return IntLe(a, b, da, db) }, va+da <= vb+db},
			{func(a, b *IntVar) *Formula { return IntGt(a, b, da, db) }, va+da > vb+db},
			{func(a, b *IntVar) *Formula { return IntGe(a, b, da, db) }, va+da >= vb+db},
			{func(a, _ *IntVar) *Formula { return a.LeConst(k) }, va <= k},
			{func(a, _ *IntVar) *Formula { return a.LtConst(k) }, va < k},
			{func(a, _ *IntVar) *Formula { return a.GeConst(k) }, va >= k},
			{func(a, _ *IntVar) *Formula { return a.GtConst(k) }, va > k},
		}
		for i, cse := range cases {
			c := NewContext()
			a := c.IntVarOf(domA)
			b := c.IntVarOf(domB)
			// Fill a's threshold memo first, from every constant and in
			// an order of its own, so the comparison is served from it.
			for _, x := range rng.Perm(14) {
				a.GtConst(x - 1)
				a.LtConst(x - 1)
			}
			c.Assert(a.EqConst(va))
			c.Assert(b.EqConst(vb))
			c.Assert(cse.build(a, b))
			if (c.Solve() != nil) != cse.want {
				t.Logf("seed %d case %d: a=%d b=%d da=%d db=%d want %v", seed, i, va, vb, da, db, cse.want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func randDomain(rng *rand.Rand) []int {
	n := 1 + rng.Intn(4)
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(12)
	}
	return out
}

// TestQuickNatOrderEncoding: NatValue after constraining to a constant
// round-trips, and NatEqOffset is functional.
func TestQuickNatOrderEncoding(t *testing.T) {
	f := func(vRaw, maxRaw, offRaw uint8) bool {
		max := 1 + int(maxRaw%12)
		v := int(vRaw) % (max + 1)
		off := int(offRaw%5) - 2
		c := NewContext()
		a := c.NatVarOf(max)
		b := c.NatVarOf(max)
		c.Assert(b.EqConstNat(v))
		c.Assert(NatEqOffset(a, b, off))
		m := c.Solve()
		want := v+off >= 0 && v+off <= max
		if (m != nil) != want {
			return false
		}
		if m != nil && m.NatValue(a) != v+off {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickCardinality: AtMost(k) models never exceed k true inputs,
// and AtLeast(k) models never fall short.
func TestQuickCardinality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		k := rng.Intn(n + 1)
		c := NewContext()
		vs := make([]*Formula, n)
		for i := range vs {
			vs[i] = c.BoolVar()
		}
		if rng.Intn(2) == 0 {
			c.AtMost(k, vs...)
			// Maximize trues via soft constraints to stress the bound.
			for _, v := range vs {
				c.AssertSoft(v, 1, "t")
			}
			r := c.Maximize(LinearDescent)
			if r.Model == nil {
				return false
			}
			count := 0
			for _, v := range vs {
				if r.Model.Bool(v) {
					count++
				}
			}
			return count == k // maximum respects the bound tightly
		}
		c.AtLeast(k, vs...)
		for _, v := range vs {
			c.AssertSoft(Not(v), 1, "f")
		}
		r := c.Maximize(LinearDescent)
		if r.Model == nil {
			return false
		}
		count := 0
		for _, v := range vs {
			if r.Model.Bool(v) {
				count++
			}
		}
		return count == k // minimum meets the bound tightly
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
