package smt

import "testing"

func TestNatVarBasics(t *testing.T) {
	c := NewContext()
	x := c.NatVarOf(5)
	if len(x.ge) != 5 {
		t.Fatal("metadata wrong")
	}
	c.Clause(x.EqConstNat(3))
	m := c.Solve()
	if m == nil {
		t.Fatal("want sat")
	}
	if m.NatValue(x) != 3 {
		t.Errorf("x = %d, want 3", m.NatValue(x))
	}
}

func TestNatVarBounds(t *testing.T) {
	c := NewContext()
	x := c.NatVarOf(4)
	if x.GeConst(0) != c.True() || x.GeConst(5) != c.False() {
		t.Error("constant bounds wrong")
	}
	if x.EqConstNat(9) != c.False() || x.EqConstNat(-1) != c.False() {
		t.Error("out-of-range equality must be false")
	}
	c.Clause(x.LeConst(0))
	m := c.Solve()
	if m == nil || m.NatValue(x) != 0 {
		t.Fatal("x <= 0 forces 0")
	}
}

func TestNatEqOffset(t *testing.T) {
	c := NewContext()
	a := c.NatVarOf(10)
	b := c.NatVarOf(10)
	c.AssertEqUnder(nil, a, b, 2) // a = b + 2
	c.Clause(b.EqConstNat(3))
	m := c.Solve()
	if m == nil {
		t.Fatal("want sat")
	}
	if m.NatValue(a) != 5 {
		t.Errorf("a = %d, want 5", m.NatValue(a))
	}
}

func TestNatEqOffsetRangeClipping(t *testing.T) {
	// a in [0,3], b = 5 fixed: a == b is outside a's range.
	c := NewContext()
	a := c.NatVarOf(3)
	b := c.NatVarOf(10)
	c.Clause(b.EqConstNat(5))
	c.AssertEqUnder(nil, a, b, 0)
	if c.Solve() != nil {
		t.Fatal("a == 5 is outside a's range: want unsat")
	}
}

func TestNatEqOffsetNegative(t *testing.T) {
	c := NewContext()
	a := c.NatVarOf(10)
	b := c.NatVarOf(10)
	c.AssertEqUnder(nil, a, b, -2) // a = b - 2
	c.Clause(b.EqConstNat(7))
	m := c.Solve()
	if m == nil || m.NatValue(a) != 5 {
		t.Fatal("a should be 5")
	}
	// b = 1 would need a = -1: unsat.
	c2 := NewContext()
	a2 := c2.NatVarOf(10)
	b2 := c2.NatVarOf(10)
	c2.AssertEqUnder(nil, a2, b2, -2)
	c2.Clause(b2.EqConstNat(1))
	if c2.Solve() != nil {
		t.Fatal("negative result must be unsat")
	}
}

func TestNatLeLtOffsets(t *testing.T) {
	c := NewContext()
	a := c.NatVarOf(8)
	b := c.NatVarOf(8)
	c.Clause(a.EqConstNat(4))
	c.AssertLeUnder(nil, a, 1, b, 0) // 4 < b
	c.AssertLeUnder(nil, b, 0, a, 1) // b <= 5
	m := c.Solve()
	if m == nil {
		t.Fatal("want sat")
	}
	if m.NatValue(b) != 5 {
		t.Errorf("b = %d, want 5", m.NatValue(b))
	}
}

func TestNatExhaustiveComparisons(t *testing.T) {
	// For every (va, vb, da, db) in a small range, AssertLeUnder must
	// agree with integer arithmetic.
	for va := 0; va <= 3; va++ {
		for vb := 0; vb <= 3; vb++ {
			for _, da := range []int{0, 1, 2} {
				for _, db := range []int{0, 1} {
					c := NewContext()
					a := c.NatVarOf(3)
					b := c.NatVarOf(3)
					c.Clause(a.EqConstNat(va))
					c.Clause(b.EqConstNat(vb))
					c.AssertLeUnder(nil, a, da, b, db)
					sat := c.Solve() != nil
					want := va+da <= vb+db
					if sat != want {
						t.Fatalf("(%d+%d <= %d+%d): sat=%v want %v", va, da, vb, db, sat, want)
					}
				}
			}
		}
	}
}

func TestNatLadderMonotone(t *testing.T) {
	c := NewContext()
	x := c.NatVarOf(6)
	c.Clause(x.GeConst(4))
	m := c.Solve()
	if m == nil {
		t.Fatal("want sat")
	}
	v := m.NatValue(x)
	if v < 4 {
		t.Errorf("x = %d, want >= 4", v)
	}
	// The ladder must hold in the model: ge[k] -> ge[k-1].
	for k := 2; k <= 6; k++ {
		if m.Bool(x.GeConst(k)) && !m.Bool(x.GeConst(k-1)) {
			t.Fatalf("ladder violated at %d", k)
		}
	}
}

func TestNatZeroMax(t *testing.T) {
	c := NewContext()
	x := c.NatVarOf(0)
	m := c.Solve()
	if m == nil || m.NatValue(x) != 0 {
		t.Fatal("zero-range nat must be 0")
	}
}

// TestNatNegationShared: a threshold negation is the ladder literal
// negated, with no gate of its own, so LeConst, EqConstNat and the
// guarded comparisons share one variable per threshold.
func TestNatNegationShared(t *testing.T) {
	c := NewContext()
	a := c.NatVarOf(4)
	vars := c.NumSATVars()
	neg := a.LeConst(0) // ¬(a >= 1)
	if neg != a.GeConst(1).Neg() || a.LeConst(0) != neg {
		t.Error("LeConst must be the negated ladder literal")
	}
	if eq := a.EqConstNat(0); eq != neg {
		t.Errorf("a == 0 is ¬(a >= 1): got %v", eq)
	}
	if a.LeConst(-1) != c.False() || a.LeConst(4) != c.True() {
		t.Error("negations of constant thresholds must fold")
	}
	if c.NumSATVars() != vars {
		t.Errorf("threshold negations allocated %d variables", c.NumSATVars()-vars)
	}
}

// TestIntThresholdShared checks the threshold memo of IntVar: repeated
// prefix and suffix comparisons with a constant return the identical
// literal, ≥ d[k] and > d[k-1] share one gate (as do ≤ d[k] and
// < d[k+1]), and the full prefix and suffix are True.
func TestIntThresholdShared(t *testing.T) {
	c := NewContext()
	iv := c.IntVarOf([]int{50, 100, 150, 200})
	ge := iv.GeConst(150)
	vars := c.NumSATVars()
	if iv.GeConst(150) != ge || iv.GeConst(101) != ge {
		t.Error("GeConst must return the identical suffix literal")
	}
	if iv.GtConst(100) != ge || iv.GtConst(149) != ge {
		t.Error("> 100 must share the literal of >= 150")
	}
	m := c.SolveAssuming(iv.EqConst(150))
	if m == nil || !m.Bool(ge) || c.SolveAssuming(ge, iv.EqConst(100)) != nil {
		t.Error(">= 150 must be the Or of the last two indicators")
	}
	le := iv.LeConst(100)
	if iv.LeConst(100) != le || iv.LtConst(150) != le || iv.LtConst(101) != le {
		t.Error("<= 100 and < 150 must share one prefix literal")
	}
	if iv.LeConst(200) != c.True() || iv.GeConst(0) != c.True() {
		t.Error("the full prefix and the full suffix must be True")
	}
	if iv.LeConst(50) != iv.EqConst(50) || iv.GeConst(200) != iv.EqConst(200) {
		t.Error("a one-value threshold is that value's indicator")
	}
	if iv.LtConst(50) != c.False() || iv.GtConst(200) != c.False() {
		t.Error("empty thresholds must fold to false")
	}
	if c.NumSATVars() != vars+1 {
		t.Errorf("the thresholds above built %d gates, want 1 (<= 100)", c.NumSATVars()-vars)
	}
}
