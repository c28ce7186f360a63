package smt

import "sort"

// IntVar is a finite-domain integer variable encoded with one indicator
// boolean per domain value plus an exactly-one constraint. This is the
// generalization of the paper's §8 optimization that replaces a 32-bit
// metric with (2n+1) boolean "rank" choices: the domain carries the
// candidate values, and comparisons compile to small boolean formulas
// over the indicators.
//
// An IntVar builds each threshold comparison with a constant — the Or
// over a prefix or a suffix of its indicators — once and hands the same
// node to every later caller, as NatVar does its threshold negations:
// v ≥ domain[k] and v > domain[k-1] are one node.
type IntVar struct {
	domain     []int      // sorted ascending, unique
	indicators []*Formula // indicators[i] ⇔ value == domain[i]
	// thresholds[n-1] is the Or over indicators[:n] (0 < n <=
	// len(domain)), thresholds[len(domain)+n-1] the Or over
	// indicators[n:] (0 < n < len(domain)); each is built on first use.
	thresholds []*Formula
}

// IntVarOf allocates an integer variable ranging over the given domain
// values (deduplicated and sorted). The exactly-one constraint over the
// indicators is asserted immediately.
func (c *Context) IntVarOf(domain []int) *IntVar {
	if len(domain) == 0 {
		panic("smt: empty integer domain")
	}
	d := append([]int(nil), domain...)
	sort.Ints(d)
	w := 1
	for i := 1; i < len(d); i++ {
		if d[i] != d[w-1] {
			d[w] = d[i]
			w++
		}
	}
	d = d[:w]
	iv := &IntVar{domain: d}
	c.Grow(len(d)) // one indicator variable per domain value
	iv.indicators = make([]*Formula, len(d))
	for i := range d {
		iv.indicators[i] = c.BoolVar()
	}
	c.assertExactlyOne(iv.indicators)
	return iv
}

// IntConst wraps a constant as a degenerate IntVar (no SAT variables).
func IntConst(v int) *IntVar {
	return &IntVar{domain: []int{v}, indicators: []*Formula{TrueF}}
}

// Domain returns the candidate values of iv.
func (iv *IntVar) Domain() []int { return append([]int(nil), iv.domain...) }

// EqConst returns the formula iv == v.
func (iv *IntVar) EqConst(v int) *Formula {
	for i, dv := range iv.domain {
		if dv == v {
			return iv.indicators[i]
		}
	}
	return FalseF
}

// LeConst returns the formula iv <= v.
func (iv *IntVar) LeConst(v int) *Formula { return iv.prefix(sort.SearchInts(iv.domain, v+1)) }

// LtConst returns the formula iv < v.
func (iv *IntVar) LtConst(v int) *Formula { return iv.prefix(sort.SearchInts(iv.domain, v)) }

// GeConst returns the formula iv >= v.
func (iv *IntVar) GeConst(v int) *Formula { return iv.suffix(sort.SearchInts(iv.domain, v)) }

// GtConst returns the formula iv > v.
func (iv *IntVar) GtConst(v int) *Formula { return iv.suffix(sort.SearchInts(iv.domain, v+1)) }

// prefix returns the Or over the first n indicators, the same node on
// every call.
func (iv *IntVar) prefix(n int) *Formula {
	if n == 0 {
		return FalseF
	}
	return iv.threshold(n-1, iv.indicators[:n])
}

// suffix returns the Or over the indicators from n on, the same node on
// every call; suffix(0) is prefix(len(domain)).
func (iv *IntVar) suffix(n int) *Formula {
	switch n {
	case 0:
		return iv.prefix(len(iv.domain))
	case len(iv.domain):
		return FalseF
	}
	return iv.threshold(len(iv.domain)+n-1, iv.indicators[n:])
}

// threshold returns thresholds[i], building it as the Or over inds on
// first use.
func (iv *IntVar) threshold(i int, inds []*Formula) *Formula {
	if iv.thresholds == nil {
		iv.thresholds = make([]*Formula, 2*len(iv.domain)-1)
	}
	if iv.thresholds[i] == nil {
		iv.thresholds[i] = Or(inds...)
	}
	return iv.thresholds[i]
}

// assertExactlyOne asserts that exactly one of fs is true using
// pairwise at-most-one (domains here are small) plus an at-least-one
// clause.
func (c *Context) assertExactlyOne(fs []*Formula) {
	c.Assert(Or(fs...))
	for i := range fs {
		for j := i + 1; j < len(fs); j++ {
			c.Assert(Or(Not(fs[i]), Not(fs[j])))
		}
	}
}

// IntEq returns a+da == b+db.
func IntEq(a, b *IntVar, da, db int) *Formula {
	var terms []*Formula
	for i, va := range a.domain {
		switch eq := b.EqConst(va + da - db); {
		case eq == FalseF:
		case len(b.domain) == 1: // b can only take this value
			terms = append(terms, a.indicators[i])
		default:
			terms = append(terms, And(a.indicators[i], eq))
		}
	}
	return Or(terms...)
}

// IntLt returns a+da < b+db.
func IntLt(a, b *IntVar, da, db int) *Formula {
	return byValue(a, func(va int) *Formula { return b.GtConst(va + da - db) })
}

// IntLe returns a+da <= b+db.
func IntLe(a, b *IntVar, da, db int) *Formula {
	return byValue(a, func(va int) *Formula { return b.GeConst(va + da - db) })
}

// IntGt returns a+da > b+db.
func IntGt(a, b *IntVar, da, db int) *Formula {
	return byValue(a, func(va int) *Formula { return b.LtConst(va + da - db) })
}

// IntGe returns a+da >= b+db.
func IntGe(a, b *IntVar, da, db int) *Formula {
	return byValue(a, func(va int) *Formula { return b.LeConst(va + da - db) })
}

// byValue returns the Or, over the values va of a whose bound(va) is
// not false, of a == va ∧ bound(va); bound is one of b's shared
// threshold nodes.
func byValue(a *IntVar, bound func(va int) *Formula) *Formula {
	var terms []*Formula
	for i, va := range a.domain {
		if t := bound(va); t != FalseF {
			terms = append(terms, And(a.indicators[i], t))
		}
	}
	return Or(terms...)
}

// AssertIntITE asserts: if cond then out == thenVar+dthen else
// out == elseVar+delse. This is the workhorse for the paper's
// if-then-else route filter and advertisement constraints (Fig. 5, 15).
func (c *Context) AssertIntITE(cond *Formula, out, thenVar *IntVar, dthen int, elseVar *IntVar, delse int) {
	c.Assert(Implies(cond, IntEq(out, thenVar, 0, dthen)))
	c.Assert(Implies(Not(cond), IntEq(out, elseVar, 0, delse)))
}

// AssertIntEqConst asserts iv == v under cond.
func (c *Context) AssertIntEqConst(cond *Formula, iv *IntVar, v int) {
	c.Assert(Implies(cond, iv.EqConst(v)))
}
