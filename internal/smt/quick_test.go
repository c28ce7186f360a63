package smt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomFormula builds an arbitrary formula over nVars variables.
func randomFormula(rng *rand.Rand, vars []*Formula, depth int) *Formula {
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

// TestQuickTseitinEquisat: for random formulas, Assert(f) is
// satisfiable exactly when some assignment makes f true, and any model
// found actually satisfies f under Model.Eval.
func TestQuickTseitinEquisat(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewContext()
		n := 3 + rng.Intn(3)
		vars := make([]*Formula, n)
		for i := range vars {
			vars[i] = c.BoolVar()
		}
		formula := randomFormula(rng, vars, 4)
		want := false
		for a := uint(0); a < 1<<uint(n); a++ {
			if evalUnder(formula, vars, a) {
				want = true
				break
			}
		}
		c.Assert(formula)
		m := c.Solve()
		if (m != nil) != want {
			t.Logf("seed %d: solver=%v brute=%v formula=%s", seed, m != nil, want, formula)
			return false
		}
		if m != nil && !m.Eval(formula) {
			t.Logf("seed %d: model does not satisfy formula", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickIntVarComparisons: IntEq/IntLt/IntLe with offsets agree
// with integer arithmetic for random domains and forced values.
func TestQuickIntVarComparisons(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		domA := randDomain(rng)
		domB := randDomain(rng)
		va := domA[rng.Intn(len(domA))]
		vb := domB[rng.Intn(len(domB))]
		da, db := rng.Intn(5)-2, rng.Intn(5)-2

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
		}
		for i, cse := range cases {
			c := NewContext()
			a := c.IntVarOf(domA)
			b := c.IntVarOf(domB)
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
