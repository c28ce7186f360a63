package smt

import "github.com/aed-net/aed/internal/sat"

// True returns the context's constant-true literal. It is pinned by a
// unit clause, so the solver drops a clause that holds it, and drops
// False (its negation) from a clause as the clause is added; And and Or
// fold both before they allocate a gate.
func (c *Context) True() sat.Lit { return c.tru }

// False returns the context's constant-false literal, True negated.
func (c *Context) False() sat.Lit { return c.tru.Neg() }

// BoolVar allocates a fresh boolean variable and returns its positive
// literal.
func (c *Context) BoolVar() sat.Lit { return sat.PosLit(c.solver.NewVar()) }

// And returns a literal equivalent to l₁ ∧ … ∧ lₙ. A false input makes
// it False and true inputs are dropped; no input left gives True and
// one input left is returned as is. Otherwise And allocates a gate
// variable and adds its Tseitin clauses, once per call: a conjunction
// used twice is built once by its caller and its literal passed on.
func (c *Context) And(ls ...sat.Lit) sat.Lit { return c.gate(ls, c.False()) }

// Or returns a literal equivalent to l₁ ∨ … ∨ lₙ, folding constants as
// And does: a true input makes it True, false inputs are dropped.
func (c *Context) Or(ls ...sat.Lit) sat.Lit { return c.gate(ls, c.tru) }

// gate builds an And (absorbing is False) or an Or (absorbing is True)
// over ls. The inputs that survive folding are stacked on litBuf above
// the caller's mark.
func (c *Context) gate(ls []sat.Lit, absorbing sat.Lit) sat.Lit {
	mark := len(c.litBuf)
	for _, l := range ls {
		switch l {
		case absorbing:
			c.litBuf = c.litBuf[:mark]
			c.gateHits++
			return absorbing
		case absorbing.Neg():
		default:
			c.litBuf = append(c.litBuf, l)
		}
	}
	kids := c.litBuf[mark:]
	switch len(kids) {
	case 0:
		c.gateHits++
		return absorbing.Neg()
	case 1:
		c.litBuf = c.litBuf[:mark]
		c.gateHits++
		return kids[0]
	}
	c.gateMisses++
	out := c.BoolVar()
	if absorbing == c.tru {
		c.DefineOr(out, kids...)
	} else {
		// out ⇔ k₁ ∧ … ∧ kₙ is ¬out ⇔ ¬k₁ ∨ … ∨ ¬kₙ.
		for i, k := range kids {
			kids[i] = k.Neg()
		}
		c.DefineOr(out.Neg(), kids...)
	}
	c.litBuf = c.litBuf[:mark]
	return out
}

// DefineOr asserts out ⇔ l₁ ∨ … ∨ lₙ as the Or gate's clauses over a
// given output: ¬out ∨ l₁ ∨ … ∨ lₙ, then out ∨ ¬lᵢ for each input. With
// no input it pins out false.
func (c *Context) DefineOr(out sat.Lit, ls ...sat.Lit) {
	mark := len(c.litBuf)
	c.litBuf = append(c.litBuf, out.Neg())
	c.litBuf = append(c.litBuf, ls...)
	c.solver.AddClause(c.litBuf[mark:]...)
	c.litBuf = c.litBuf[:mark]
	for _, l := range ls {
		c.solver.AddClause(out, l.Neg())
	}
}

// Clause asserts l₁ ∨ … ∨ lₙ. The empty clause, or one whose literals
// are all False, makes the context unsatisfiable.
func (c *Context) Clause(ls ...sat.Lit) { c.solver.AddClause(ls...) }

// ClauseUnder asserts g₁ ∧ … ∧ gₘ → l₁ ∨ … ∨ lₙ as the one clause
// ¬g₁ ∨ … ∨ ¬gₘ ∨ l₁ ∨ … ∨ lₙ: the guard is spliced in, not gated. A
// nil guard asserts the plain clause.
func (c *Context) ClauseUnder(g []sat.Lit, ls ...sat.Lit) {
	mark := len(c.litBuf)
	for _, l := range g {
		c.litBuf = append(c.litBuf, l.Neg())
	}
	c.litBuf = append(c.litBuf, ls...)
	c.solver.AddClause(c.litBuf[mark:]...)
	c.litBuf = c.litBuf[:mark]
}
