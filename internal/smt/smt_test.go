package smt

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/aed-net/aed/internal/sat"
)

func TestBasicBooleanSolve(t *testing.T) {
	c := NewContext()
	a := c.BoolVar()
	b := c.BoolVar()
	c.Clause(c.And(a, b.Neg()))
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
	c.Clause(a)
	c.Clause(a.Neg())
	if c.Solve() != nil {
		t.Fatal("want unsat")
	}
}

// TestImpliesIffITE: implication and equivalence built from the gates
// (a → b as ¬a ∨ b, b ⇔ d as two implications) propagate as they
// should.
func TestImpliesIffITE(t *testing.T) {
	c := NewContext()
	a := c.BoolVar()
	b := c.BoolVar()
	d := c.BoolVar()
	c.Clause(c.Or(a.Neg(), b))
	c.Clause(c.And(c.Or(b.Neg(), d), c.Or(b, d.Neg())))
	c.Clause(a)
	m := c.Solve()
	if m == nil {
		t.Fatal("want sat")
	}
	if !m.Bool(b) || !m.Bool(d) {
		t.Error("a -> b, b <-> d, a  should force b and d")
	}
}

// TestITESemantics exhaustively checks if-then-else built from the
// gates, (c ∧ t) ∨ (¬c ∧ e), against its truth table.
func TestITESemantics(t *testing.T) {
	for _, condVal := range []bool{true, false} {
		for _, tVal := range []bool{true, false} {
			for _, eVal := range []bool{true, false} {
				c := NewContext()
				cond, th, el := c.BoolVar(), c.BoolVar(), c.BoolVar()
				fix := func(l sat.Lit, v bool) sat.Lit {
					if v {
						return l
					}
					return l.Neg()
				}
				ite := c.Or(c.And(cond, th), c.And(cond.Neg(), el))
				want := eVal
				if condVal {
					want = tVal
				}
				m := c.SolveAssuming(fix(cond, condVal), fix(th, tVal), fix(el, eVal))
				if m == nil || m.Bool(ite) != want {
					t.Fatalf("ITE(%v,%v,%v) != %v", condVal, tVal, eVal, want)
				}
				if c.SolveAssuming(fix(cond, condVal), fix(th, tVal), fix(el, eVal), fix(ite, !want)) != nil {
					t.Fatalf("ITE(%v,%v,%v) can be %v", condVal, tVal, eVal, !want)
				}
			}
		}
	}
}

// TestConstantSimplification: the gates fold constants and single
// inputs without a new variable, and each call that builds a gate
// allocates one.
func TestConstantSimplification(t *testing.T) {
	c := NewContext()
	a, b := c.BoolVar(), c.BoolVar()
	vars := c.NumSATVars()
	tru, fls := c.True(), c.False()
	if fls != tru.Neg() {
		t.Error("False must be True negated")
	}
	if c.And() != tru || c.Or() != fls {
		t.Error("empty And/Or wrong")
	}
	if c.And(a, fls) != fls || c.Or(a, tru) != tru {
		t.Error("constant short-circuit broken")
	}
	if c.And(a, tru) != a || c.Or(fls, a.Neg(), fls) != a.Neg() {
		t.Error("a gate with one input left must return it")
	}
	if c.NumSATVars() != vars {
		t.Errorf("folded gates allocated %d variables", c.NumSATVars()-vars)
	}
	if hits, misses := c.InternStats(); hits != 6 || misses != 0 {
		t.Errorf("InternStats = %d, %d; want 6 folded requests, no gate", hits, misses)
	}
	if g := c.And(a, b); g == c.And(a, b) || c.NumSATVars() != vars+2 {
		t.Error("each And over two inputs must allocate its own gate")
	}
	if m := c.Solve(); m == nil || !m.Bool(tru) || m.Bool(fls) {
		t.Error("True must read true in a model")
	}
}

func TestIntVarDomainAndEq(t *testing.T) {
	c := NewContext()
	x := c.IntVarOf([]int{50, 100, 150, 100})
	if len(x.indicators) != 3 {
		t.Fatalf("%d indicators for the domain {50, 100, 150}", len(x.indicators))
	}
	c.Clause(x.EqConst(100))
	m := c.Solve()
	if m == nil {
		t.Fatal("want sat")
	}
	if m.Int(x) != 100 {
		t.Errorf("x = %d, want 100", m.Int(x))
	}
	if x.EqConst(42) != c.False() {
		t.Error("EqConst outside domain must be false")
	}
}

func TestIntComparisons(t *testing.T) {
	c := NewContext()
	x := c.IntVarOf([]int{1, 2, 3})
	y := c.IntVarOf([]int{1, 2, 3})
	c.Clause(IntGt(y, x))
	c.Clause(y.EqConst(2))
	m := c.Solve()
	if m == nil {
		t.Fatal("want sat")
	}
	if m.Int(x) != 1 || m.Int(y) != 2 {
		t.Errorf("x=%d y=%d, want 1,2", m.Int(x), m.Int(y))
	}
}

func TestIntGeGt(t *testing.T) {
	c := NewContext()
	x := c.IntVarOf([]int{5, 10})
	y := c.IntVarOf([]int{7})
	c.Clause(IntGt(x, y))
	m := c.Solve()
	if m == nil || m.Int(x) != 10 {
		t.Fatal("x > 7 forces x=10")
	}
	c2 := NewContext()
	z := c2.IntVarOf([]int{5, 7})
	w := c2.IntVarOf([]int{7})
	c2.Clause(IntGe(z, w))
	m2 := c2.Solve()
	if m2 == nil || m2.Int(z) != 7 {
		t.Fatal("z >= 7 forces z=7")
	}
}

// TestAtMostAtLeast: forcing k+1 of four inputs true under atMost(k) is
// unsat, and at least three of five — at most two of the negations —
// keeps three true.
func TestAtMostAtLeast(t *testing.T) {
	for k := 0; k < 4; k++ {
		c := NewContext()
		vs := make([]sat.Lit, 4)
		for i := range vs {
			vs[i] = c.BoolVar()
		}
		c.atMost(k, vs)
		if c.SolveAssuming(vs[:k]...) == nil {
			t.Errorf("k=%d: forcing k true must be sat", k)
		}
		if c.SolveAssuming(vs[:k+1]...) != nil {
			t.Errorf("k=%d: forcing k+1 true must be unsat", k)
		}
	}
	c := NewContext()
	vs := make([]sat.Lit, 5)
	neg := make([]sat.Lit, 5)
	for i := range vs {
		vs[i] = c.BoolVar()
		neg[i] = vs[i].Neg()
	}
	c.atMost(2, neg)
	m := c.SolveAssuming(neg[:2]...)
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
	if c.SolveAssuming(neg[:3]...) != nil {
		t.Error("three of five false must be unsat")
	}
}

func TestExactlyOne(t *testing.T) {
	c := NewContext()
	vs := make([]sat.Lit, 4)
	for i := range vs {
		vs[i] = c.BoolVar()
	}
	c.assertExactlyOne(vs)
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
	if c.SolveAssuming(vs[0], vs[3]) != nil {
		t.Error("two true must be unsat")
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
		c.Clause(a, b)
		c.Clause(a.Neg(), b.Neg())
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
		c.Clause(a)
		c.Clause(a.Neg())
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
	c.Clause(a)
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
			vs := make([]sat.Lit, n)
			for i := range vs {
				vs[i] = c.BoolVar()
			}
			toLits := func(clause [][2]int) []sat.Lit {
				var ds []sat.Lit
				for _, l := range clause {
					f := vs[l[0]]
					if l[1] == 0 {
						f = f.Neg()
					}
					ds = append(ds, f)
				}
				return ds
			}
			for _, h := range hard {
				c.Clause(toLits(h)...)
			}
			for i, sc := range soft {
				c.AssertSoft(c.Or(toLits(sc)...), weights[i], "s")
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
	c.Clause(a.Neg(), b)
	if m := c.SolveAssuming(a, b.Neg()); m != nil {
		t.Fatal("assuming a ∧ ¬b with a→b must be unsat")
	}
	if m := c.SolveAssuming(a); m == nil || !m.Bool(b) {
		t.Fatal("assuming a must give b")
	}
	core, satisfiable := c.UnsatCore([]sat.Lit{a, b.Neg()})
	if satisfiable || len(core) == 0 {
		t.Fatalf("UnsatCore(a, ¬b) = %v, sat=%v; want a non-empty core", core, satisfiable)
	}
	if core, satisfiable := c.UnsatCore([]sat.Lit{a}); !satisfiable || core != nil {
		t.Fatalf("UnsatCore(a) = %v, sat=%v; want satisfiable", core, satisfiable)
	}
	if m := c.SolveAssuming(a); m == nil || !m.Bool(b) {
		t.Fatal("context unusable after an unsat core")
	}
}

// TestModelEval: in a model, a gate's literal reads as its function of
// the inputs evaluates, and a negated literal as the negation.
func TestModelEval(t *testing.T) {
	c := NewContext()
	a := c.BoolVar()
	b := c.BoolVar()
	and, or := c.And(a, b.Neg()), c.Or(b, a.Neg())
	c.Clause(a)
	c.Clause(b.Neg())
	m := c.Solve()
	if m == nil {
		t.Fatal("want sat")
	}
	if !m.Bool(and) || m.Bool(or) || m.Bool(and.Neg()) || !m.Bool(or.Neg()) {
		t.Error("a gate literal disagrees with the model of its inputs")
	}
	if late := c.BoolVar(); m.Bool(late) || !m.Bool(late.Neg()) {
		t.Error("a variable created after the solve must read false")
	}
}

// TestParkRecompactsOnlyAfterGrowth: a second Park compacts the solver
// again (and so allocates its copies) exactly when variables or problem
// clauses were added since the last one; a search, which adds only
// learned clauses, leaves it a no-op.
func TestParkRecompactsOnlyAfterGrowth(t *testing.T) {
	c := NewContext()
	vs := make([]sat.Lit, 12)
	for i := range vs {
		vs[i] = c.BoolVar()
	}
	for i := range vs {
		c.Clause(vs[i], vs[(i+1)%len(vs)].Neg(), vs[(i+5)%len(vs)])
		c.Clause(c.And(vs[i], vs[(i+3)%len(vs)]).Neg(), vs[(i+7)%len(vs)].Neg())
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
	c.Clause(x, vs[0], vs[1])
	if n := mallocs(c.Park); n == 0 {
		t.Fatal("Park after the solver grew did not compact")
	}
	if n := mallocs(c.Park); n != 0 {
		t.Fatalf("repeated Park allocated %d objects", n)
	}
	// Growth that is all binary clauses leaves the arena as it was but
	// regrows the watch lists, so it counts too.
	_, words, _ := c.Size()
	clauses := c.NumSATClauses()
	c.Clause(x, vs[2].Neg())
	if _, w, _ := c.Size(); w != words || c.NumSATClauses() != clauses+1 {
		t.Fatalf("binary assert: arena %d -> %d words, %d -> %d clauses", words, w, clauses, c.NumSATClauses())
	}
	if n := mallocs(c.Park); n == 0 {
		t.Fatal("Park after binary-only growth did not compact")
	}
}
