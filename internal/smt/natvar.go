package smt

// NatVar is a bounded natural variable in [0, Max] with an order
// ("thermometer") encoding: ge[k] ⇔ value >= k, for k in 1..Max, with
// the monotone ladder ge[k] → ge[k-1] asserted. Order encoding makes
// the comparisons route-cost propagation needs linear-size, where a
// one-hot encoding would be quadratic; this matters because AED
// instantiates cost variables per (router, protocol) per destination.
type NatVar struct {
	max int
	ge  []*Formula // ge[k-1] ⇔ value >= k
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

// LeConst returns the formula n <= k.
func (n *NatVar) LeConst(k int) *Formula { return Not(n.GeConst(k + 1)) }

// EqConstNat returns the formula n == k.
func (n *NatVar) EqConstNat(k int) *Formula {
	if k < 0 || k > n.max {
		return FalseF
	}
	return And(n.GeConst(k), Not(n.GeConst(k+1)))
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
	// a == b + w  ⇔  ∀k: (a >= k ⇔ b >= k-w)
	var parts []*Formula
	lo, hi := 1, a.max
	// Also constrain b's implied range: b + w must lie in [0, a.max].
	parts = append(parts, b.GeConst(-w))             // b >= -w  (a >= 0)
	parts = append(parts, Not(b.GeConst(a.max-w+1))) // b <= a.max - w
	for k := lo; k <= hi; k++ {
		parts = append(parts, Iff(a.GeConst(k), b.GeConst(k-w)))
	}
	return And(parts...)
}

// NatLeOffset returns the formula a + da <= b + db.
func NatLeOffset(a *NatVar, da int, b *NatVar, db int) *Formula {
	// a + da <= b + db  ⇔  ∀k: a >= k-da → b >= k-db, for k over the
	// union of both ranges.
	var parts []*Formula
	for k := min(1+da, 1+db); k <= max(a.max+da, b.max+db); k++ {
		parts = append(parts, Implies(a.GeConst(k-da), b.GeConst(k-db)))
	}
	return And(parts...)
}

// NatLtOffset returns the formula a + da < b + db.
func NatLtOffset(a *NatVar, da int, b *NatVar, db int) *Formula {
	return NatLeOffset(a, da+1, b, db)
}

// NatEq returns a == b.
func NatEq(a, b *NatVar) *Formula { return NatEqOffset(a, b, 0) }

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
