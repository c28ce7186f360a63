package smt

import "github.com/aed-net/aed/internal/sat"

// Handle identifies one retractable assertion of a Context. Handles
// are small dense integers, stable for the lifetime of the context.
type Handle int

// retractEntry is one retractable assertion's state: the selector
// literal guarding its clauses and whether it is currently active.
type retractEntry struct {
	sel    sat.Lit
	active bool
}

// AssertRetractable adds the clauses as a hard constraint that can
// later be switched off (Retract) and on again (Reassert) without
// touching the clause database. The implementation is the MiniSat
// selector-literal pattern: a fresh selector s guards every clause as
// (¬s ∨ …), and each subsequent Solve call assumes s while the
// assertion is active and ¬s while it is retracted — so retraction is
// an assumption flip, and every learned clause derived meanwhile stays
// valid.
func (c *Context) AssertRetractable(clauses ...[]sat.Lit) Handle {
	h := Handle(len(c.retract))
	sel := [1]sat.Lit{c.BoolVar()}
	for _, cl := range clauses {
		c.ClauseUnder(sel[:], cl...)
	}
	c.retract = append(c.retract, retractEntry{sel: sel[0], active: true})
	return h
}

// Retract deactivates a retractable assertion: from the next Solve on,
// its selector is assumed false, which satisfies all its guarded
// clauses without deleting them (they can be re-armed by Reassert).
func (c *Context) Retract(h Handle) { c.retract[h].active = false }

// Reassert re-activates a previously retracted assertion.
func (c *Context) Reassert(h Handle) { c.retract[h].active = true }

// withSelectors prepends the selector assumptions — s for each active
// retractable assertion, ¬s for each retracted one — to the caller's
// assumption list. Retracted selectors must be assumed negatively, not
// merely omitted: a free selector would let the solver re-arm the
// retracted clauses and over-constrain the instance. The returned
// slice reuses a scratch buffer owned by the context.
func (c *Context) withSelectors(assumptions []sat.Lit) []sat.Lit {
	if len(c.retract) == 0 {
		return assumptions
	}
	out := c.selAsm[:0]
	for _, e := range c.retract {
		if e.active {
			out = append(out, e.sel)
		} else {
			out = append(out, e.sel.Neg())
		}
	}
	out = append(out, assumptions...)
	c.selAsm = out
	return out
}
