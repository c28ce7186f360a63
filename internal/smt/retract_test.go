package smt

import (
	"testing"

	"github.com/aed-net/aed/internal/sat"
)

// TestRetractableFlip exercises the core lifecycle: an assertion
// constrains the instance while active, stops constraining after
// Retract, and constrains again after Reassert — all on one live
// context with no re-encoding.
func TestRetractableFlip(t *testing.T) {
	c := NewContext()
	x := c.BoolVar()

	h := c.AssertRetractable([]sat.Lit{x})
	m := c.Solve()
	if m == nil {
		t.Fatal("solve with active assertion: unsat")
	}
	if !m.Bool(x) {
		t.Fatal("active assertion x not enforced")
	}

	// Retract and pin x false via an assumption: now satisfiable.
	c.Retract(h)
	if m2 := c.SolveAssuming(x.Neg()); m2 == nil || m2.Bool(x) {
		t.Fatal("retracted assertion still enforced")
	}

	// Reassert: ¬x is contradictory again.
	c.Reassert(h)
	if m3 := c.SolveAssuming(x.Neg()); m3 != nil {
		t.Fatal("reasserted constraint not enforced")
	}
	if len(c.retract) != 1 {
		t.Fatalf("%d retractable assertions, want 1", len(c.retract))
	}
}

// TestRetractableConjunctionAndClause checks the structural cases of
// a retractable assertion: its clauses share one selector, a clause of
// several literals stays one guarded clause, and a clause of False only
// bites while active.
func TestRetractableConjunctionAndClause(t *testing.T) {
	c := NewContext()
	a, b, d := c.BoolVar(), c.BoolVar(), c.BoolVar()

	vars, clauses := c.NumSATVars(), c.NumSATClauses()
	h := c.AssertRetractable([]sat.Lit{a}, []sat.Lit{b, d})
	if c.NumSATVars() != vars+1 || c.NumSATClauses() != clauses+2 {
		t.Fatalf("two clauses asserted as %d variables and %d clauses, want one selector and two clauses",
			c.NumSATVars()-vars, c.NumSATClauses()-clauses)
	}
	m := c.SolveAssuming(b.Neg())
	if m == nil {
		t.Fatal("unsat with active conjunction")
	}
	if !m.Bool(a) || !m.Bool(d) {
		t.Fatalf("conjunction not enforced: a=%v d=%v", m.Bool(a), m.Bool(d))
	}
	c.Retract(h)
	if m = c.SolveAssuming(a.Neg()); m == nil || m.Bool(a) {
		t.Fatal("retracted conjunction still enforces a")
	}

	// Constant false: unsat while active, harmless once retracted.
	hf := c.AssertRetractable([]sat.Lit{c.False()})
	if c.Solve() != nil {
		t.Fatal("active false retractable: expected unsat")
	}
	c.Retract(hf)
	if c.Solve() == nil {
		t.Fatal("retracted false retractable still blocks solving")
	}
}

// TestRetractableLearnedClausesSurvive makes sure flipping selectors
// between solves does not corrupt state: a sequence of flips on the
// same context always agrees with a fresh context encoding only the
// active assertions.
func TestRetractableLearnedClausesSurvive(t *testing.T) {
	// Three assertions over three variables: v0 ∨ v1; ¬v0 ∨ v2;
	// ¬v1 ∧ ¬v2.
	forms := func(v []sat.Lit) [][][]sat.Lit {
		return [][][]sat.Lit{
			{{v[0], v[1]}},
			{{v[0].Neg(), v[2]}},
			{{v[1].Neg()}, {v[2].Neg()}},
		}
	}
	build := func(active []bool) *Context {
		c := NewContext()
		v := []sat.Lit{c.BoolVar(), c.BoolVar(), c.BoolVar()}
		for i, cls := range forms(v) {
			if active[i] {
				for _, cl := range cls {
					c.Clause(cl...)
				}
			}
		}
		return c
	}

	live := NewContext()
	v := []sat.Lit{live.BoolVar(), live.BoolVar(), live.BoolVar()}
	var hs []Handle
	for _, cls := range forms(v) {
		hs = append(hs, live.AssertRetractable(cls...))
	}

	// All 8 activity patterns, visited in an order that flips state.
	for mask := 0; mask < 8; mask++ {
		active := []bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
		for i, h := range hs {
			if active[i] {
				live.Reassert(h)
			} else {
				live.Retract(h)
			}
		}
		liveOK := live.Solve() != nil
		freshOK := build(active).Solve() != nil
		if liveOK != freshOK {
			t.Fatalf("pattern %03b: live=%v fresh=%v", mask, liveOK, freshOK)
		}
	}
}

// TestRetractableWithMaximize checks that retractable assertions
// compose with the MaxSAT searches: flipping a retractable between two
// Maximize calls on the same context changes the optimum accordingly,
// with the memoized totalizer reused rather than rebuilt. Under Auto the
// first search is core-guided and the second linear descent over the
// retired core-guided scaffolding.
func TestRetractableWithMaximize(t *testing.T) {
	for _, strat := range []Strategy{Auto, LinearDescent, CoreGuided} {
		c := NewContext()
		x := c.BoolVar()
		y := c.BoolVar()
		c.AssertSoft(x, 2, "want-x")
		c.AssertSoft(y, 1, "want-y")

		h := c.AssertRetractable([]sat.Lit{x.Neg()})
		res := c.Maximize(strat)
		if res.Model == nil {
			t.Fatalf("strategy %v: nil model", strat)
		}
		if res.ViolatedWeight != 2 {
			t.Fatalf("strategy %v: violated=%d, want 2 (x blocked)", strat, res.ViolatedWeight)
		}

		c.Retract(h)
		res2 := c.Maximize(strat)
		if res2.Model == nil || res2.ViolatedWeight != 0 {
			t.Fatalf("strategy %v after retract: violated weight should drop to 0", strat)
		}
		if strat == Auto && (res.Search != CoreGuided || res2.Search != LinearDescent) {
			t.Fatalf("Auto ran %v then %v, want core then linear", res.Search, res2.Search)
		}
		if !res2.Model.Bool(x) || !res2.Model.Bool(y) {
			t.Fatalf("strategy %v after retract: optimum should satisfy both softs", strat)
		}
	}
}
