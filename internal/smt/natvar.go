package smt

import "github.com/aed-net/aed/internal/sat"

// NatVar is a bounded natural variable in [0, Max] with an order
// ("thermometer") encoding: ge[k] ⇔ value >= k, for k in 1..Max, with
// the monotone ladder ge[k] → ge[k-1] asserted. Order encoding makes
// the comparisons route-cost propagation needs linear-size, where a
// one-hot encoding would be quadratic; this matters because AED
// instantiates cost variables per (router, protocol) per destination.
//
// A threshold comparison with a constant is one ladder literal, or its
// negation. Comparisons between two NatVars that are asserted under a
// guard go straight to clauses (AssertLeUnder, AssertEqUnder).
type NatVar struct {
	c   *Context
	max int
	ge  []sat.Lit // ge[k-1] ⇔ value >= k
}

// NatVarOf allocates a bounded natural in [0, max].
func (c *Context) NatVarOf(max int) *NatVar {
	if max < 0 {
		panic("smt: negative NatVar bound")
	}
	n := &NatVar{c: c, max: max}
	c.Grow(max) // one ladder variable per threshold
	n.ge = make([]sat.Lit, max)
	for k := 1; k <= max; k++ {
		n.ge[k-1] = c.BoolVar()
	}
	for k := 2; k <= max; k++ {
		c.Clause(n.ge[k-1].Neg(), n.ge[k-2])
	}
	return n
}

// GeConst returns the literal n >= k.
func (n *NatVar) GeConst(k int) sat.Lit {
	switch {
	case k <= 0:
		return n.c.True()
	case k > n.max:
		return n.c.False()
	}
	return n.ge[k-1]
}

// LeConst returns the literal n <= k.
func (n *NatVar) LeConst(k int) sat.Lit { return n.GeConst(k + 1).Neg() }

// EqConstNat returns the literal n == k.
func (n *NatVar) EqConstNat(k int) sat.Lit { return n.c.And(n.GeConst(k), n.LeConst(k)) }

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

// AssertLeUnder asserts g₁ ∧ … ∧ gₘ → a + da <= b + db straight to
// clauses. It depends on the offsets only through d = da − db:
// a + d <= b ⇔ ∀j: a >= j → b >= j+d, for j over the union of both
// ranges, one clause [¬g…, ¬(a >= j), b >= j+d] per threshold.
func (c *Context) AssertLeUnder(g []sat.Lit, a *NatVar, da int, b *NatVar, db int) {
	d := da - db
	lo, hi := min(1, 1-d), max(a.max, b.max-d)
	c.assertOrdUnder(g, hi-lo+1, func(i int) (sat.Lit, sat.Lit) {
		j := lo + i
		return a.GeConst(j).Neg(), b.GeConst(j + d)
	})
}

// AssertEqUnder asserts g₁ ∧ … ∧ gₘ → a == b + w straight to clauses:
// a == b + w ⇔ ∀k: (a >= k ⇔ b >= k-w), with b + w in [0, a.max] — two
// clauses bounding b's range and two per threshold of a.
func (c *Context) AssertEqUnder(g []sat.Lit, a, b *NatVar, w int) {
	f := c.False()
	c.assertOrdUnder(g, 2+2*a.max, func(i int) (sat.Lit, sat.Lit) {
		switch i {
		case 0:
			return b.GeConst(-w), f // b >= -w
		case 1:
			return b.LeConst(a.max - w), f // b <= a.max - w
		}
		k := i / 2
		if i%2 == 0 {
			return a.GeConst(k).Neg(), b.GeConst(k - w) // a >= k → b >= k-w
		}
		return a.GeConst(k), b.GeConst(k - w).Neg() // b >= k-w → a >= k
	})
}

// assertOrdUnder adds, under guard g, the n clauses x ∨ y that
// clause(i) returns; the solver drops a clause holding True and the
// False literals of the others. A clause of two False literals makes
// g → false the only clause.
func (c *Context) assertOrdUnder(g []sat.Lit, n int, clause func(int) (sat.Lit, sat.Lit)) {
	f := c.False()
	for i := 0; i < n; i++ {
		if x, y := clause(i); x == f && y == f {
			c.ClauseUnder(g)
			return
		}
	}
	for i := 0; i < n; i++ {
		x, y := clause(i)
		c.ClauseUnder(g, x, y)
	}
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
