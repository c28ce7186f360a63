package smt

import (
	"math/rand"
	"runtime"
	"testing"
)

func TestBasicBooleanSolve(t *testing.T) {
	c := NewContext()
	a := c.BoolVar()
	b := c.BoolVar()
	c.Assert(And(a, Not(b)))
	m := c.Solve()
	if m == nil {
		t.Fatal("want sat")
	}
	if !m.Bool(a) || m.Bool(b) {
		t.Errorf("a=%v b=%v, want true,false", m.Bool(a), m.Bool(b))
	}
}

func TestUnsatConjunction(t *testing.T) {
	c := NewContext()
	a := c.BoolVar()
	c.Assert(a)
	c.Assert(Not(a))
	if c.Solve() != nil {
		t.Fatal("want unsat")
	}
}

func TestImpliesIffITE(t *testing.T) {
	c := NewContext()
	a := c.BoolVar()
	b := c.BoolVar()
	d := c.BoolVar()
	c.Assert(Implies(a, b))
	c.Assert(Iff(b, d))
	c.Assert(a)
	m := c.Solve()
	if m == nil {
		t.Fatal("want sat")
	}
	if !m.Bool(b) || !m.Bool(d) {
		t.Error("a -> b, b <-> d, a  should force b and d")
	}
}

func TestITESemantics(t *testing.T) {
	// Exhaustively check ITE against its truth table via solving.
	for _, condVal := range []bool{true, false} {
		for _, tVal := range []bool{true, false} {
			for _, eVal := range []bool{true, false} {
				c := NewContext()
				cond := c.BoolVar()
				th := c.BoolVar()
				el := c.BoolVar()
				c.Assert(Iff(cond, Const(condVal)))
				c.Assert(Iff(th, Const(tVal)))
				c.Assert(Iff(el, Const(eVal)))
				want := eVal
				if condVal {
					want = tVal
				}
				c.Assert(Iff(ITE(cond, th, el), Const(want)))
				if c.Solve() == nil {
					t.Fatalf("ITE(%v,%v,%v) != %v", condVal, tVal, eVal, want)
				}
			}
		}
	}
}

func TestConstantSimplification(t *testing.T) {
	if And() != TrueF || Or() != FalseF {
		t.Error("empty And/Or wrong")
	}
	a := &Formula{op: opVar, v: 0}
	if Not(Not(a)) != a {
		t.Error("double negation should cancel")
	}
	if And(a, FalseF) != FalseF || Or(a, TrueF) != TrueF {
		t.Error("constant short-circuit broken")
	}
	if ITE(TrueF, a, FalseF) != a {
		t.Error("ITE with constant condition should simplify")
	}
}

func TestIntVarDomainAndEq(t *testing.T) {
	c := NewContext()
	x := c.IntVarOf([]int{50, 100, 150, 100})
	if d := x.Domain(); len(d) != 3 || d[0] != 50 || d[2] != 150 {
		t.Fatalf("domain = %v", d)
	}
	c.Assert(x.EqConst(100))
	m := c.Solve()
	if m == nil {
		t.Fatal("want sat")
	}
	if m.Int(x) != 100 {
		t.Errorf("x = %d, want 100", m.Int(x))
	}
	if x.EqConst(42) != FalseF {
		t.Error("EqConst outside domain must be false")
	}
}

func TestIntComparisons(t *testing.T) {
	c := NewContext()
	x := c.IntVarOf([]int{1, 2, 3})
	y := c.IntVarOf([]int{1, 2, 3})
	c.Assert(IntLt(x, y, 0, 0))
	c.Assert(y.EqConst(2))
	m := c.Solve()
	if m == nil {
		t.Fatal("want sat")
	}
	if m.Int(x) != 1 || m.Int(y) != 2 {
		t.Errorf("x=%d y=%d, want 1,2", m.Int(x), m.Int(y))
	}
}

func TestIntOffsets(t *testing.T) {
	// x + 1 == y with x in {1,2}, y in {2}: x must be 1.
	c := NewContext()
	x := c.IntVarOf([]int{1, 2})
	y := c.IntVarOf([]int{2})
	c.Assert(IntEq(x, y, 1, 0))
	m := c.Solve()
	if m == nil {
		t.Fatal("want sat")
	}
	if m.Int(x) != 1 {
		t.Errorf("x=%d, want 1", m.Int(x))
	}
}

func TestIntGeGt(t *testing.T) {
	c := NewContext()
	x := c.IntVarOf([]int{5, 10})
	y := c.IntVarOf([]int{7})
	c.Assert(IntGt(x, y, 0, 0))
	m := c.Solve()
	if m == nil || m.Int(x) != 10 {
		t.Fatal("x > 7 forces x=10")
	}
	c2 := NewContext()
	z := c2.IntVarOf([]int{5, 7})
	w := c2.IntVarOf([]int{7})
	c2.Assert(IntGe(z, w, 0, 0))
	m2 := c2.Solve()
	if m2 == nil || m2.Int(z) != 7 {
		t.Fatal("z >= 7 forces z=7")
	}
}

func TestIntITE(t *testing.T) {
	c := NewContext()
	cond := c.BoolVar()
	out := c.IntVarOf([]int{10, 20, 21})
	a := c.IntVarOf([]int{20})
	b := c.IntVarOf([]int{10})
	c.AssertIntITE(cond, out, a, 1, b, 0)
	c.Assert(cond)
	m := c.Solve()
	if m == nil || m.Int(out) != 21 {
		t.Fatalf("then-branch: out=%v", m.Int(out))
	}
	c2 := NewContext()
	cond2 := c2.BoolVar()
	out2 := c2.IntVarOf([]int{10, 21})
	a2 := c2.IntVarOf([]int{20})
	b2 := c2.IntVarOf([]int{10})
	c2.AssertIntITE(cond2, out2, a2, 1, b2, 0)
	c2.Assert(Not(cond2))
	m2 := c2.Solve()
	if m2 == nil || m2.Int(out2) != 10 {
		t.Fatal("else-branch failed")
	}
}

func TestAtMostAtLeast(t *testing.T) {
	for k := 0; k <= 4; k++ {
		c := NewContext()
		vs := make([]*Formula, 4)
		for i := range vs {
			vs[i] = c.BoolVar()
		}
		c.AtMost(k, vs...)
		// Force k+1 true if possible: should be unsat for k<4.
		for i := 0; i <= k && i < 4; i++ {
			c.Assert(vs[i])
		}
		m := c.Solve()
		if k < 4 && m != nil {
			// forcing k+1 of them true must violate at-most-k
			count := 0
			for _, v := range vs {
				if m.Bool(v) {
					count++
				}
			}
			if count > k {
				t.Errorf("k=%d: %d true violates AtMost", k, count)
			}
			if k+1 <= 4 {
				t.Errorf("k=%d: expected unsat when forcing k+1 true", k)
			}
		}
	}
	c := NewContext()
	vs := make([]*Formula, 5)
	for i := range vs {
		vs[i] = c.BoolVar()
	}
	c.AtLeast(3, vs...)
	m := c.Solve()
	if m == nil {
		t.Fatal("at-least-3 of 5 should be sat")
	}
	count := 0
	for _, v := range vs {
		if m.Bool(v) {
			count++
		}
	}
	if count < 3 {
		t.Errorf("only %d true, want >= 3", count)
	}
}

func TestExactlyOne(t *testing.T) {
	c := NewContext()
	vs := make([]*Formula, 4)
	for i := range vs {
		vs[i] = c.BoolVar()
	}
	c.ExactlyOne(vs...)
	m := c.Solve()
	if m == nil {
		t.Fatal("want sat")
	}
	count := 0
	for _, v := range vs {
		if m.Bool(v) {
			count++
		}
	}
	if count != 1 {
		t.Errorf("%d true, want exactly 1", count)
	}
}

func maximizeAll(t *testing.T, build func(c *Context)) map[Strategy]*MaxResult {
	t.Helper()
	out := make(map[Strategy]*MaxResult)
	for _, s := range []Strategy{LinearDescent, CoreGuided} {
		c := NewContext()
		build(c)
		out[s] = c.Maximize(s)
	}
	return out
}

func TestMaxSATSimple(t *testing.T) {
	// Hard: a XOR b. Soft: a (w=2), b (w=1). Optimum: a true, b false.
	results := maximizeAll(t, func(c *Context) {
		a := c.BoolVar()
		b := c.BoolVar()
		c.Assert(Or(a, b))
		c.Assert(Or(Not(a), Not(b)))
		c.AssertSoft(a, 2, "want-a")
		c.AssertSoft(b, 1, "want-b")
	})
	for s, r := range results {
		if r.Model == nil {
			t.Fatalf("strategy %v: unsat", s)
		}
		if r.SatisfiedWeight != 2 || r.ViolatedWeight != 1 {
			t.Errorf("strategy %v: sat=%d viol=%d, want 2,1", s, r.SatisfiedWeight, r.ViolatedWeight)
		}
		if len(r.Violated) != 1 || r.Violated[0] != "want-b" {
			t.Errorf("strategy %v: violated=%v", s, r.Violated)
		}
	}
}

func TestMaxSATAllSatisfiable(t *testing.T) {
	results := maximizeAll(t, func(c *Context) {
		a := c.BoolVar()
		b := c.BoolVar()
		c.AssertSoft(a, 1, "a")
		c.AssertSoft(b, 5, "b")
	})
	for s, r := range results {
		if r.Model == nil || r.ViolatedWeight != 0 {
			t.Errorf("strategy %v: viol=%d, want 0", s, r.ViolatedWeight)
		}
	}
}

func TestMaxSATHardUnsat(t *testing.T) {
	results := maximizeAll(t, func(c *Context) {
		a := c.BoolVar()
		c.Assert(a)
		c.Assert(Not(a))
		c.AssertSoft(a, 1, "a")
	})
	for s, r := range results {
		if r.Model != nil {
			t.Errorf("strategy %v: want nil model for unsat hard constraints", s)
		}
	}
}

func TestMaxSATNoSoft(t *testing.T) {
	c := NewContext()
	a := c.BoolVar()
	c.Assert(a)
	r := c.Maximize(LinearDescent)
	if r.Model == nil || !r.Model.Bool(a) {
		t.Fatal("maximize with no soft constraints should just solve")
	}
}

// TestMaxSATRandomAgreement: all three strategies must find the same
// optimal violated weight on random weighted instances, matching a
// brute-force optimum.
func TestMaxSATRandomAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 25; iter++ {
		n := 3 + rng.Intn(4) // variables
		nh := rng.Intn(6)    // hard clauses
		ns := 1 + rng.Intn(5)
		type cl struct{ lits [][2]int } // var, sign
		hard := make([][][2]int, nh)
		for i := range hard {
			sz := 1 + rng.Intn(3)
			for j := 0; j < sz; j++ {
				hard[i] = append(hard[i], [2]int{rng.Intn(n), rng.Intn(2)})
			}
		}
		soft := make([][][2]int, ns)
		weights := make([]int, ns)
		for i := range soft {
			sz := 1 + rng.Intn(2)
			for j := 0; j < sz; j++ {
				soft[i] = append(soft[i], [2]int{rng.Intn(n), rng.Intn(2)})
			}
			weights[i] = 1 + rng.Intn(4)
		}
		// Brute force optimum.
		bestViol := -1
		for m := 0; m < 1<<n; m++ {
			ok := true
			for _, h := range hard {
				sat := false
				for _, l := range h {
					if (m>>l[0]&1 == 1) == (l[1] == 1) {
						sat = true
					}
				}
				if !sat {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			viol := 0
			for i, sc := range soft {
				sat := false
				for _, l := range sc {
					if (m>>l[0]&1 == 1) == (l[1] == 1) {
						sat = true
					}
				}
				if !sat {
					viol += weights[i]
				}
			}
			if bestViol == -1 || viol < bestViol {
				bestViol = viol
			}
		}
		build := func(c *Context) {
			vs := make([]*Formula, n)
			for i := range vs {
				vs[i] = c.BoolVar()
			}
			toF := func(clause [][2]int) *Formula {
				var ds []*Formula
				for _, l := range clause {
					f := vs[l[0]]
					if l[1] == 0 {
						f = Not(f)
					}
					ds = append(ds, f)
				}
				return Or(ds...)
			}
			for _, h := range hard {
				c.Assert(toF(h))
			}
			for i, sc := range soft {
				c.AssertSoft(toF(sc), weights[i], "s")
			}
		}
		check := func(strat Strategy, r *MaxResult) {
			t.Helper()
			if bestViol == -1 {
				if r.Model != nil {
					t.Fatalf("iter %d strat %v: want unsat", iter, strat)
				}
				return
			}
			if r.Model == nil {
				t.Fatalf("iter %d strat %v: want sat", iter, strat)
			}
			if r.ViolatedWeight != bestViol {
				t.Fatalf("iter %d strat %v: violated=%d, brute optimum=%d",
					iter, strat, r.ViolatedWeight, bestViol)
			}
		}
		for _, strat := range []Strategy{Auto, LinearDescent, CoreGuided} {
			c := NewContext()
			build(c)
			check(strat, c.Maximize(strat))
			if strat == Auto {
				// The re-solve takes the linear path over the retired
				// core-guided scaffolding and must reach the same cost.
				check(strat, c.Maximize(strat))
			}
		}
	}
}

func TestSolveAssuming(t *testing.T) {
	c := NewContext()
	a := c.BoolVar()
	b := c.BoolVar()
	c.Assert(Implies(a, b))
	if m := c.SolveAssuming(a, Not(b)); m != nil {
		t.Fatal("assuming a ∧ ¬b with a→b must be unsat")
	}
	if m := c.SolveAssuming(a); m == nil || !m.Bool(b) {
		t.Fatal("assuming a must give b")
	}
	core, satisfiable := c.UnsatCore([]*Formula{a, Not(b)})
	if satisfiable || len(core) == 0 {
		t.Fatalf("UnsatCore(a, ¬b) = %v, sat=%v; want a non-empty core", core, satisfiable)
	}
	if core, satisfiable := c.UnsatCore([]*Formula{a}); !satisfiable || core != nil {
		t.Fatalf("UnsatCore(a) = %v, sat=%v; want satisfiable", core, satisfiable)
	}
	if m := c.SolveAssuming(a); m == nil || !m.Bool(b) {
		t.Fatal("context unusable after an unsat core")
	}
}

func TestModelEval(t *testing.T) {
	c := NewContext()
	a := c.BoolVar()
	b := c.BoolVar()
	c.Assert(a)
	c.Assert(Not(b))
	m := c.Solve()
	if m == nil {
		t.Fatal("want sat")
	}
	if !m.Eval(And(a, Not(b))) || m.Eval(Or(b, Not(a))) {
		t.Error("Eval disagrees with model")
	}
}

func TestFormulaString(t *testing.T) {
	c := NewContext()
	a := c.BoolVar()
	b := c.BoolVar()
	s := And(a, Or(Not(b), TrueF)).String()
	if s == "" {
		t.Error("String should render something")
	}
	if TrueF.String() != "⊤" || FalseF.String() != "⊥" {
		t.Error("constant rendering wrong")
	}
}

// TestParkRecompactsOnlyAfterGrowth: a second Park compacts the solver
// again (and so allocates its copies) exactly when variables or problem
// clauses were added since the last one; a search, which adds only
// learned clauses, leaves it a no-op.
func TestParkRecompactsOnlyAfterGrowth(t *testing.T) {
	c := NewContext()
	vs := make([]*Formula, 12)
	for i := range vs {
		vs[i] = c.BoolVar()
	}
	for i := range vs {
		c.Assert(Or(vs[i], Not(vs[(i+1)%len(vs)]), vs[(i+5)%len(vs)]))
		c.Assert(Implies(And(vs[i], vs[(i+3)%len(vs)]), Not(vs[(i+7)%len(vs)])))
	}
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	if c.Solve() == nil {
		t.Fatal("unsat")
	}
	if n := mallocs(c.Park); n == 0 {
		t.Fatal("first Park did not compact")
	}
	if c.Solve() == nil {
		t.Fatal("unsat after Park")
	}
	if n := mallocs(c.Park); n != 0 {
		t.Fatalf("Park after a search alone allocated %d objects", n)
	}
	x := c.BoolVar()
	c.Assert(Or(x, vs[0], vs[1]))
	if n := mallocs(c.Park); n == 0 {
		t.Fatal("Park after the solver grew did not compact")
	}
	if n := mallocs(c.Park); n != 0 {
		t.Fatalf("repeated Park allocated %d objects", n)
	}
}
