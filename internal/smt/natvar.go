package smt

import "github.com/aed-net/aed/internal/sat"

// NatVar is a bounded natural variable in [0, Max] with an order
// ("thermometer") encoding: ge[k] ⇔ value >= k, for k in 1..Max, with
// the monotone ladder ge[k] → ge[k-1] asserted. Order encoding makes
// the comparisons route-cost propagation needs linear-size, where a
// one-hot encoding would be quadratic; this matters because AED
// instantiates cost variables per (router, protocol) per destination.
//
// A NatVar builds each threshold negation once and hands the same node
// to every later caller. Comparisons between two NatVars that are
// asserted under a guard go straight to clauses (AssertLeUnder,
// AssertEqUnder) and build no node at all.
type NatVar struct {
	max int
	ge  []*Formula // ge[k-1] ⇔ value >= k
	neg []*Formula // neg[k-1] = ¬ge[k-1], built on first use
}

// NatVarOf allocates a bounded natural in [0, max].
func (c *Context) NatVarOf(max int) *NatVar {
	if max < 0 {
		panic("smt: negative NatVar bound")
	}
	n := &NatVar{max: max}
	c.Grow(max) // one ladder variable per threshold
	n.ge = make([]*Formula, max)
	for k := 1; k <= max; k++ {
		n.ge[k-1] = c.BoolVar()
	}
	for k := 2; k <= max; k++ {
		c.Assert(Implies(n.ge[k-1], n.ge[k-2]))
	}
	return n
}

// Max returns the upper bound of n's range.
func (n *NatVar) Max() int { return n.max }

// GeConst returns the formula n >= k.
func (n *NatVar) GeConst(k int) *Formula {
	switch {
	case k <= 0:
		return TrueF
	case k > n.max:
		return FalseF
	}
	return n.ge[k-1]
}

// notGe returns the formula ¬(n >= k), the same node on every call.
func (n *NatVar) notGe(k int) *Formula {
	switch {
	case k <= 0:
		return FalseF
	case k > n.max:
		return TrueF
	}
	if n.neg == nil {
		n.neg = make([]*Formula, n.max)
	}
	if n.neg[k-1] == nil {
		n.neg[k-1] = Not(n.ge[k-1])
	}
	return n.neg[k-1]
}

// LeConst returns the formula n <= k.
func (n *NatVar) LeConst(k int) *Formula { return n.notGe(k + 1) }

// EqConstNat returns the formula n == k.
func (n *NatVar) EqConstNat(k int) *Formula {
	if k < 0 || k > n.max {
		return FalseF
	}
	return And(n.GeConst(k), n.notGe(k+1))
}

// NatValue reads n's value from a model: the largest k with ge[k].
func (m *Model) NatValue(n *NatVar) int {
	v := 0
	for k := 1; k <= n.max; k++ {
		if m.Bool(n.ge[k-1]) {
			v = k
		}
	}
	return v
}

// NatEqOffset returns the formula a == b + w (w may be negative).
// Values outside a's range make the formula false where required.
func NatEqOffset(a, b *NatVar, w int) *Formula {
	// a == b + w  ⇔  ∀k: (a >= k ⇔ b >= k-w), each Iff written as
	// (¬a>=k ∨ b>=k-w) ∧ (a>=k ∨ ¬b>=k-w) over the shared negations.
	parts := make([]*Formula, 0, 2+2*a.max)
	// Also constrain b's implied range: b + w must lie in [0, a.max].
	parts = append(parts, b.GeConst(-w))      // b >= -w  (a >= 0)
	parts = append(parts, b.notGe(a.max-w+1)) // b <= a.max - w
	for k := 1; k <= a.max; k++ {
		parts = append(parts,
			Or(a.notGe(k), b.GeConst(k-w)),
			Or(a.ge[k-1], b.notGe(k-w)))
	}
	return And(parts...)
}

// NatLeOffset returns the formula a + da <= b + db. It depends on the
// offsets only through their difference (see leShift).
func NatLeOffset(a *NatVar, da int, b *NatVar, db int) *Formula {
	return a.leShift(b, da-db)
}

// NatLtOffset returns the formula a + da < b + db.
func NatLtOffset(a *NatVar, da int, b *NatVar, db int) *Formula {
	return a.leShift(b, da-db+1)
}

// leShift returns the formula n + d <= b:
// n + d <= b  ⇔  ∀j: n >= j → b >= j+d, for j over the union of both
// ranges.
func (n *NatVar) leShift(b *NatVar, d int) *Formula {
	lo, hi := min(1, 1-d), max(n.max, b.max-d)
	parts := make([]*Formula, 0, hi-lo+1)
	for j := lo; j <= hi; j++ {
		parts = append(parts, Or(n.notGe(j), b.GeConst(j+d)))
	}
	return And(parts...)
}

// NatEq returns a == b.
func NatEq(a, b *NatVar) *Formula { return NatEqOffset(a, b, 0) }

// AssertLeUnder asserts g → a + da <= b + db straight to clauses, with
// no formula node: with d = da − db, one clause [¬g…, ¬(a >= j),
// b >= j+d] per threshold j of leShift, where ¬g… are the literals
// lower gives ¬g. These are the clauses lower makes of
// Implies(g, NatLeOffset(a, da, b, db)).
func (c *Context) AssertLeUnder(g *Formula, a *NatVar, da int, b *NatVar, db int) {
	d := da - db
	lo, hi := min(1, 1-d), max(a.max, b.max-d)
	c.assertOrdUnder(g, hi-lo+1, func(i int) (ord, ord) {
		j := lo + i
		return ord{a, j, true}, ord{b, j + d, false}
	})
}

// AssertEqUnder asserts g → a == b + w straight to clauses: the clauses
// lower makes of Implies(g, NatEqOffset(a, b, w)), two bounding b's
// range and two per threshold of a.
func (c *Context) AssertEqUnder(g *Formula, a, b *NatVar, w int) {
	c.assertOrdUnder(g, 2+2*a.max, func(i int) (ord, ord) {
		switch i {
		case 0:
			return ord{b, -w, false}, ord{} // b >= -w
		case 1:
			return ord{b, a.max - w + 1, true}, ord{} // b <= a.max - w
		}
		k := i / 2
		if i%2 == 0 {
			return ord{a, k, true}, ord{b, k - w, false} // a >= k → b >= k-w
		}
		return ord{a, k, false}, ord{b, k - w, true} // b >= k-w → a >= k
	})
}

// ord is the order-encoding literal n >= k, negated when neg is set. A
// threshold outside 1..n.max makes it a constant; the zero ord is the
// constant false.
type ord struct {
	n   *NatVar
	k   int
	neg bool
}

// constant returns o's value and true when o is a constant.
func (o ord) constant() (val, ok bool) {
	switch {
	case o.n == nil:
		return false, true
	case o.k <= 0:
		return !o.neg, true
	case o.k > o.n.max:
		return o.neg, true
	}
	return false, false
}

// assertOrdUnder adds, under guard g, the n clauses x ∨ y that
// clause(i) returns, folding constants as the formula constructors
// would: a true literal drops its clause and a false one drops itself.
// A clause left with no literal makes g → false the only clause.
func (c *Context) assertOrdUnder(g *Formula, n int, clause func(int) (ord, ord)) {
	if g.op == opConst && !g.b {
		return
	}
	empty := false
	for i := 0; i < n && !empty; i++ {
		x, y := clause(i)
		xv, xc := x.constant()
		yv, yc := y.constant()
		empty = xc && !xv && yc && !yv
	}
	gmark := len(c.litBuf)
	if g.op != opConst {
		c.pushDisjunct(g, true)
	}
	if empty {
		c.addClause(gmark)
	} else {
		for i := 0; i < n; i++ {
			x, y := clause(i)
			top := len(c.litBuf)
			if !c.pushOrd(x) && !c.pushOrd(y) {
				c.addClause(gmark)
			}
			c.litBuf = c.litBuf[:top]
		}
	}
	c.litBuf = c.litBuf[:gmark]
}

// pushOrd pushes o's literal onto litBuf unless o is a constant, and
// reports whether o is the constant true.
func (c *Context) pushOrd(o ord) bool {
	if val, ok := o.constant(); ok {
		return val
	}
	c.pushLit(sat.PosLit(c.satVar(o.n.ge[o.k-1])), o.neg)
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
