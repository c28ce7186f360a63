package smt

import "testing"

// TestRetractableFlip exercises the core lifecycle: an assertion
// constrains the instance while active, stops constraining after
// Retract, and constrains again after Reassert — all on one live
// context with no re-encoding.
func TestRetractableFlip(t *testing.T) {
	c := NewContext()
	x := c.BoolVar()

	h := c.AssertRetractable(x)
	m := c.Solve()
	if m == nil {
		t.Fatal("solve with active assertion: unsat")
	}
	if !m.Eval(x) {
		t.Fatal("active assertion x not enforced")
	}

	// Retract and pin x false via an assumption: now satisfiable.
	c.Retract(h)
	if !c.Retracted(h) {
		t.Fatal("Retracted(h) = false after Retract")
	}
	if m2 := c.SolveAssuming(Not(x)); m2 == nil || m2.Eval(x) {
		t.Fatal("retracted assertion still enforced")
	}

	// Reassert: ¬x is contradictory again.
	c.Reassert(h)
	if m3 := c.SolveAssuming(Not(x)); m3 != nil {
		t.Fatal("reasserted constraint not enforced")
	}
	if c.NumRetractable() != 1 {
		t.Fatalf("NumRetractable = %d, want 1", c.NumRetractable())
	}
}

// TestRetractableConjunctionAndClause checks the structural cases of
// assertGuarded: a top-level conjunction shares one selector across all
// conjuncts, a disjunction becomes a single guarded clause, and a
// constant-false retractable only bites while active.
func TestRetractableConjunctionAndClause(t *testing.T) {
	c := NewContext()
	a, b, d := c.BoolVar(), c.BoolVar(), c.BoolVar()

	h := c.AssertRetractable(And(a, Or(b, d)))
	m := c.SolveAssuming(Not(b))
	if m == nil {
		t.Fatal("unsat with active conjunction")
	}
	if !m.Eval(a) || !m.Eval(d) {
		t.Fatalf("conjunction not enforced: a=%v d=%v", m.Eval(a), m.Eval(d))
	}
	c.Retract(h)
	if m = c.SolveAssuming(Not(a)); m == nil || m.Eval(a) {
		t.Fatal("retracted conjunction still enforces a")
	}

	// Constant false: unsat while active, harmless once retracted.
	hf := c.AssertRetractable(Const(false))
	if c.Solve() != nil {
		t.Fatal("active false retractable: expected unsat")
	}
	c.Retract(hf)
	if c.Solve() == nil {
		t.Fatal("retracted false retractable still blocks solving")
	}
}

// TestRetractableCore checks that an unsat caused by retractable
// assertions maps back to exactly the responsible handles.
func TestRetractableCore(t *testing.T) {
	c := NewContext()
	x := c.BoolVar()
	y := c.BoolVar()

	hx := c.AssertRetractable(x)
	hnx := c.AssertRetractable(Not(x))
	hy := c.AssertRetractable(y) // irrelevant to the conflict

	if c.Solve() != nil {
		t.Fatal("x ∧ ¬x: expected unsat")
	}
	core := c.RetractableCore()
	in := func(h Handle) bool {
		for _, g := range core {
			if g == h {
				return true
			}
		}
		return false
	}
	if !in(hx) || !in(hnx) {
		t.Fatalf("core %v must contain both conflicting handles %v %v", core, hx, hnx)
	}
	if in(hy) {
		t.Fatalf("core %v contains irrelevant handle %v", core, hy)
	}

	// Retracting one core member restores satisfiability.
	c.Retract(hnx)
	if c.Solve() == nil {
		t.Fatal("retracting a core member did not restore sat")
	}
}

// TestRetractableLearnedClausesSurvive makes sure flipping selectors
// between solves does not corrupt state: a sequence of flips on the
// same context always agrees with a fresh context encoding only the
// active assertions.
func TestRetractableLearnedClausesSurvive(t *testing.T) {
	build := func(active []bool) *Context {
		c := NewContext()
		vars := []*Formula{c.BoolVar(), c.BoolVar(), c.BoolVar()}
		forms := []*Formula{
			Or(vars[0], vars[1]),
			Or(Not(vars[0]), vars[2]),
			And(Not(vars[1]), Not(vars[2])),
		}
		for i, f := range forms {
			if active[i] {
				c.Assert(f)
			}
		}
		return c
	}

	live := NewContext()
	vars := []*Formula{live.BoolVar(), live.BoolVar(), live.BoolVar()}
	hs := []Handle{
		live.AssertRetractable(Or(vars[0], vars[1])),
		live.AssertRetractable(Or(Not(vars[0]), vars[2])),
		live.AssertRetractable(And(Not(vars[1]), Not(vars[2]))),
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
	for _, strat := range []Strategy{Auto, LinearDescent, BinarySearch, CoreGuided} {
		c := NewContext()
		x := c.BoolVar()
		y := c.BoolVar()
		c.AssertSoft(x, 2, "want-x")
		c.AssertSoft(y, 1, "want-y")

		h := c.AssertRetractable(Not(x))
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
		if !res2.Model.Eval(x) || !res2.Model.Eval(y) {
			t.Fatalf("strategy %v after retract: optimum should satisfy both softs", strat)
		}
	}
}
