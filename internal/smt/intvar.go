package smt

import (
	"sort"

	"github.com/aed-net/aed/internal/sat"
)

// IntVar is a finite-domain integer variable encoded with one indicator
// boolean per domain value plus an exactly-one constraint. This is the
// generalization of the paper's §8 optimization that replaces a 32-bit
// metric with (2n+1) boolean "rank" choices: the domain carries the
// candidate values, and comparisons compile to small gates over the
// indicators.
//
// An IntVar builds each threshold comparison with a constant — the Or
// over a proper prefix or suffix of its indicators — once and hands the
// same literal to every later caller: v ≥ domain[k] and v > domain[k-1]
// are one gate. The full prefix (and suffix) is True, since exactly one
// indicator holds.
type IntVar struct {
	c          *Context
	domain     []int     // sorted ascending, unique
	indicators []sat.Lit // indicators[i] ⇔ value == domain[i]
	// thresholds[n-1] is the Or over indicators[:n], and
	// thresholds[len(domain)+n-2] the Or over indicators[n:], for
	// 0 < n < len(domain); each is built on first use (0 until then).
	thresholds []sat.Lit
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
	iv := &IntVar{c: c, domain: d}
	c.Grow(len(d)) // one indicator variable per domain value
	iv.indicators = make([]sat.Lit, len(d))
	for i := range d {
		iv.indicators[i] = c.BoolVar()
	}
	c.assertExactlyOne(iv.indicators)
	return iv
}

// EqConst returns the literal iv == v.
func (iv *IntVar) EqConst(v int) sat.Lit {
	for i, dv := range iv.domain {
		if dv == v {
			return iv.indicators[i]
		}
	}
	return iv.c.False()
}

// LeConst returns the literal iv <= v.
func (iv *IntVar) LeConst(v int) sat.Lit { return iv.prefix(sort.SearchInts(iv.domain, v+1)) }

// LtConst returns the literal iv < v.
func (iv *IntVar) LtConst(v int) sat.Lit { return iv.prefix(sort.SearchInts(iv.domain, v)) }

// GeConst returns the literal iv >= v.
func (iv *IntVar) GeConst(v int) sat.Lit { return iv.suffix(sort.SearchInts(iv.domain, v)) }

// GtConst returns the literal iv > v.
func (iv *IntVar) GtConst(v int) sat.Lit { return iv.suffix(sort.SearchInts(iv.domain, v+1)) }

// prefix returns the Or over the first n indicators, the same literal
// on every call.
func (iv *IntVar) prefix(n int) sat.Lit {
	switch n {
	case 0:
		return iv.c.False()
	case len(iv.domain):
		return iv.c.True()
	}
	return iv.threshold(n-1, iv.indicators[:n])
}

// suffix returns the Or over the indicators from n on, the same literal
// on every call.
func (iv *IntVar) suffix(n int) sat.Lit {
	switch n {
	case 0:
		return iv.c.True()
	case len(iv.domain):
		return iv.c.False()
	}
	return iv.threshold(len(iv.domain)+n-2, iv.indicators[n:])
}

// threshold returns thresholds[i], building it as the Or over inds on
// first use.
func (iv *IntVar) threshold(i int, inds []sat.Lit) sat.Lit {
	if iv.thresholds == nil {
		iv.thresholds = make([]sat.Lit, 2*len(iv.domain)-2)
	}
	if iv.thresholds[i] == 0 {
		iv.thresholds[i] = iv.c.Or(inds...)
	} else {
		iv.c.gateHits++
	}
	return iv.thresholds[i]
}

// assertExactlyOne asserts that exactly one of ls is true using
// pairwise at-most-one (domains here are small) plus an at-least-one
// clause.
func (c *Context) assertExactlyOne(ls []sat.Lit) {
	c.Clause(ls...)
	for i := range ls {
		for j := i + 1; j < len(ls); j++ {
			c.Clause(ls[i].Neg(), ls[j].Neg())
		}
	}
}

// AssertIntEqUnder asserts g₁ ∧ … ∧ gₘ → a == b straight to clauses:
// one clause per value v of b, b == v → a == v under the guard. A value
// of b outside a's domain is excluded under the guard.
func (c *Context) AssertIntEqUnder(g []sat.Lit, a, b *IntVar) {
	for j, v := range b.domain {
		c.ClauseUnder(g, b.indicators[j].Neg(), a.EqConst(v))
	}
}

// IntGe returns the literal a >= b.
func IntGe(a, b *IntVar) sat.Lit { return byValue(a, b.LeConst) }

// IntGt returns the literal a > b.
func IntGt(a, b *IntVar) sat.Lit { return byValue(a, b.LtConst) }

// byValue returns the Or, over the values va of a, of a == va ∧
// bound(va); bound is one of b's shared thresholds.
func byValue(a *IntVar, bound func(va int) sat.Lit) sat.Lit {
	terms := make([]sat.Lit, 0, len(a.domain))
	for i, va := range a.domain {
		terms = append(terms, a.c.And(a.indicators[i], bound(va)))
	}
	return a.c.Or(terms...)
}
