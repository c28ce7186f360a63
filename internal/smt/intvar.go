package smt

import "sort"

// IntVar is a finite-domain integer variable encoded with one indicator
// boolean per domain value plus an exactly-one constraint. This is the
// generalization of the paper's §8 optimization that replaces a 32-bit
// metric with (2n+1) boolean "rank" choices: the domain carries the
// candidate values, and comparisons compile to small boolean formulas
// over the indicators.
type IntVar struct {
	domain     []int      // sorted ascending, unique
	indicators []*Formula // indicators[i] ⇔ value == domain[i]
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

// cmp builds the comparison formula  a+da  op  b+db  where op keeps
// pairs selected by keep(va+da, vb+db).
func cmp(a, b *IntVar, da, db int, keep func(x, y int) bool) *Formula {
	var terms []*Formula
	for i, va := range a.domain {
		// Collect the b-indicators compatible with this a value.
		var bs []*Formula
		for j, vb := range b.domain {
			if keep(va+da, vb+db) {
				bs = append(bs, b.indicators[j])
			}
		}
		if len(bs) == 0 {
			continue
		}
		if len(bs) == len(b.domain) {
			terms = append(terms, a.indicators[i])
		} else {
			terms = append(terms, And(a.indicators[i], Or(bs...)))
		}
	}
	return Or(terms...)
}

// IntEq returns a+da == b+db.
func IntEq(a, b *IntVar, da, db int) *Formula {
	return cmp(a, b, da, db, func(x, y int) bool { return x == y })
}

// IntLt returns a+da < b+db.
func IntLt(a, b *IntVar, da, db int) *Formula {
	return cmp(a, b, da, db, func(x, y int) bool { return x < y })
}

// IntLe returns a+da <= b+db.
func IntLe(a, b *IntVar, da, db int) *Formula {
	return cmp(a, b, da, db, func(x, y int) bool { return x <= y })
}

// IntGt returns a+da > b+db.
func IntGt(a, b *IntVar, da, db int) *Formula { return IntLt(b, a, db, da) }

// IntGe returns a+da >= b+db.
func IntGe(a, b *IntVar, da, db int) *Formula { return IntLe(b, a, db, da) }

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
