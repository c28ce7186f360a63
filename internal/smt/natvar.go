package smt

// NatVar is a bounded natural variable in [0, Max] with an order
// ("thermometer") encoding: ge[k] ⇔ value >= k, for k in 1..Max, with
// the monotone ladder ge[k] → ge[k-1] asserted. Order encoding makes
// the comparisons route-cost propagation needs linear-size, where a
// one-hot encoding would be quadratic; this matters because AED
// instantiates cost variables per (router, protocol) per destination.
//
// A NatVar builds each threshold negation and each comparison against
// another NatVar once and hands the same node to every later caller:
// the encoder compares the same cost variables many times over (every
// leaf of a fabric compares the same spines' costs), and building each
// comparison once keeps those repeats from allocating nodes the intern
// table would only discard. The memo lives on the NatVar, so it dies
// with the encoder structures that hold the variable.
type NatVar struct {
	max int
	ge  []*Formula // ge[k-1] ⇔ value >= k
	neg []*Formula // neg[k-1] = ¬ge[k-1], built on first use
	cmp map[natCmpKey]*Formula
}

// natCmpKey names the comparison n + d <= b memoized on n.
type natCmpKey struct {
	b *NatVar
	d int
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
// offsets only through their difference, and a NatVar builds each
// (b, da−db) comparison once (see leShift).
func NatLeOffset(a *NatVar, da int, b *NatVar, db int) *Formula {
	return a.leShift(b, da-db)
}

// NatLtOffset returns the formula a + da < b + db.
func NatLtOffset(a *NatVar, da int, b *NatVar, db int) *Formula {
	return a.leShift(b, da-db+1)
}

// leShift returns the formula n + d <= b, memoized on n under (b, d):
// n + d <= b  ⇔  ∀j: n >= j → b >= j+d, for j over the union of both
// ranges.
func (n *NatVar) leShift(b *NatVar, d int) *Formula {
	key := natCmpKey{b, d}
	if f, ok := n.cmp[key]; ok {
		return f
	}
	lo, hi := min(1, 1-d), max(n.max, b.max-d)
	parts := make([]*Formula, 0, hi-lo+1)
	for j := lo; j <= hi; j++ {
		parts = append(parts, Or(n.notGe(j), b.GeConst(j+d)))
	}
	f := And(parts...)
	if n.cmp == nil {
		n.cmp = make(map[natCmpKey]*Formula)
	}
	n.cmp[key] = f
	return f
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
