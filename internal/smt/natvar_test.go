package smt

import "testing"

func TestNatVarBasics(t *testing.T) {
	c := NewContext()
	x := c.NatVarOf(5)
	if x.Max() != 5 {
		t.Fatal("metadata wrong")
	}
	c.Assert(x.EqConstNat(3))
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
	if x.GeConst(0) != TrueF || x.GeConst(5) != FalseF {
		t.Error("constant bounds wrong")
	}
	if x.EqConstNat(9) != FalseF || x.EqConstNat(-1) != FalseF {
		t.Error("out-of-range equality must be false")
	}
	c.Assert(x.LeConst(0))
	m := c.Solve()
	if m == nil || m.NatValue(x) != 0 {
		t.Fatal("x <= 0 forces 0")
	}
}

func TestNatEqOffset(t *testing.T) {
	c := NewContext()
	a := c.NatVarOf(10)
	b := c.NatVarOf(10)
	c.Assert(NatEqOffset(a, b, 2)) // a = b + 2
	c.Assert(b.EqConstNat(3))
	m := c.Solve()
	if m == nil {
		t.Fatal("want sat")
	}
	if m.NatValue(a) != 5 {
		t.Errorf("a = %d, want 5", m.NatValue(a))
	}
}

func TestNatEqOffsetRangeClipping(t *testing.T) {
	// a in [0,3], b = 5 fixed, a = b + 0 impossible... a max is 3.
	c := NewContext()
	a := c.NatVarOf(3)
	b := c.NatVarOf(10)
	c.Assert(b.EqConstNat(5))
	c.Assert(NatEq(a, b))
	if c.Solve() != nil {
		t.Fatal("a == 5 is outside a's range: want unsat")
	}
}

func TestNatEqOffsetNegative(t *testing.T) {
	c := NewContext()
	a := c.NatVarOf(10)
	b := c.NatVarOf(10)
	c.Assert(NatEqOffset(a, b, -2)) // a = b - 2
	c.Assert(b.EqConstNat(7))
	m := c.Solve()
	if m == nil || m.NatValue(a) != 5 {
		t.Fatal("a should be 5")
	}
	// b = 1 would need a = -1: unsat.
	c2 := NewContext()
	a2 := c2.NatVarOf(10)
	b2 := c2.NatVarOf(10)
	c2.Assert(NatEqOffset(a2, b2, -2))
	c2.Assert(b2.EqConstNat(1))
	if c2.Solve() != nil {
		t.Fatal("negative result must be unsat")
	}
}

func TestNatLeLtOffsets(t *testing.T) {
	c := NewContext()
	a := c.NatVarOf(8)
	b := c.NatVarOf(8)
	c.Assert(a.EqConstNat(4))
	c.Assert(NatLtOffset(a, 0, b, 0)) // 4 < b
	c.Assert(NatLeOffset(b, 0, a, 1)) // b <= 5
	m := c.Solve()
	if m == nil {
		t.Fatal("want sat")
	}
	if m.NatValue(b) != 5 {
		t.Errorf("b = %d, want 5", m.NatValue(b))
	}
}

func TestNatExhaustiveComparisons(t *testing.T) {
	// For every (va, vb, da, db) in a small range, NatLeOffset must
	// agree with integer arithmetic.
	for va := 0; va <= 3; va++ {
		for vb := 0; vb <= 3; vb++ {
			for _, da := range []int{0, 1, 2} {
				for _, db := range []int{0, 1} {
					c := NewContext()
					a := c.NatVarOf(3)
					b := c.NatVarOf(3)
					c.Assert(a.EqConstNat(va))
					c.Assert(b.EqConstNat(vb))
					c.Assert(NatLeOffset(a, da, b, db))
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
	c.Assert(x.GeConst(4))
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

// TestNatNegationShared checks the threshold-negation memo: LeConst,
// EqConstNat and NatEqOffset hand out one ¬(n >= k) node per threshold.
func TestNatNegationShared(t *testing.T) {
	c := NewContext()
	a, b := c.NatVarOf(4), c.NatVarOf(4)
	neg := a.LeConst(0) // ¬(a >= 1)
	if a.LeConst(0) != neg {
		t.Error("LeConst must return the identical negation node")
	}
	if eq := a.EqConstNat(0); eq != neg {
		t.Errorf("a == 0 is ¬(a >= 1): got %v", eq)
	}
	if eq := NatEqOffset(b, a, 0); eq.kids[0].kids[0] != b.LeConst(0) || eq.kids[1].kids[1] != neg {
		t.Error("NatEqOffset must use the shared negation nodes")
	}
	if a.LeConst(-1) != FalseF || a.LeConst(4) != TrueF {
		t.Error("negations of constant thresholds must fold")
	}
}

// TestIntThresholdShared checks the threshold memo of IntVar: repeated
// prefix and suffix comparisons with a constant return the identical
// node, ≥ d[k] and > d[k-1] share one node (as do ≤ d[k] and < d[k+1]),
// and the full prefix is the full suffix.
func TestIntThresholdShared(t *testing.T) {
	c := NewContext()
	iv := c.IntVarOf([]int{50, 100, 150, 200})
	ge := iv.GeConst(150)
	if iv.GeConst(150) != ge || iv.GeConst(101) != ge {
		t.Error("GeConst must return the identical suffix node")
	}
	if iv.GtConst(100) != ge || iv.GtConst(149) != ge {
		t.Error("> 100 must share the node of >= 150")
	}
	if len(ge.kids) != 2 || ge.kids[0] != iv.indicators[2] || ge.kids[1] != iv.indicators[3] {
		t.Errorf(">= 150 is %v, want the Or of the last two indicators", ge)
	}
	le := iv.LeConst(100)
	if iv.LeConst(100) != le || iv.LtConst(150) != le || iv.LtConst(101) != le {
		t.Error("<= 100 and < 150 must share one prefix node")
	}
	if iv.LeConst(200) != iv.GeConst(50) || iv.GeConst(0) != iv.LeConst(999) {
		t.Error("the full prefix and the full suffix must be one node")
	}
	if iv.LeConst(50) != iv.EqConst(50) || iv.GeConst(200) != iv.EqConst(200) {
		t.Error("a one-value threshold is that value's indicator")
	}
	if iv.LtConst(50) != FalseF || iv.GtConst(200) != FalseF {
		t.Error("empty thresholds must fold to false")
	}
}
