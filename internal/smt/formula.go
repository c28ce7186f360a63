// Package smt layers a small satisfiability-modulo-theories facility on
// top of the CDCL core in internal/sat. It provides:
//
//   - a boolean formula AST (variables, ¬ ∧ ∨ ⇒ ⇔, if-then-else),
//   - Tseitin transformation to CNF,
//   - finite-domain integer variables and terms with comparisons,
//     equality, and constant offsets (sufficient for route metrics such
//     as local preference, administrative distance, and path cost),
//   - cardinality and pseudo-boolean constraints (sequential counter
//     and totalizer encodings), and
//   - weighted MaxSAT with selectable search strategies, which is how
//     AED's management objectives become "soft" constraints.
//
// This package substitutes for the Z3 MaxSMT solver used by the paper's
// artifact (DESIGN.md §2): AED's encoding is finite — the paper itself
// replaces integer metrics by (2n+1) boolean choices — so finite-domain
// reasoning over a SAT core preserves the semantics.
package smt

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Formula is a boolean formula over solver variables. Formulas are
// immutable; construct them with the package-level combinators.
//
// Each node carries a one-slot Tseitin memo: the first Context to
// encode a gate node (Not/And/Or) stamps it with its id and keeps the
// node's literal on the node, so encoding needs no pointer-keyed map.
// The layout is kept within the 48-byte allocation size class (see
// TestFormulaSize).
//
// A node may be encoded by several contexts, one after another or at
// the same time: the stamp is one atomic word set once, so exactly one
// context wins it and the others memoize the node in a side map. TrueF
// and FalseF are never stamped.
type Formula struct {
	kids []*Formula
	// memo is a gate node's Tseitin memo: the id of the Context that
	// encoded it first in the high 32 bits and that context's literal
	// in the low 32; 0 until a context encodes it.
	memo atomic.Uint64
	v    int32 // variable index for opVar
	op   op
	b    bool // constant value for opConst
}

type op int8

const (
	opConst op = iota
	opVar
	opNot
	opAnd
	opOr
)

var (
	// TrueF is the constant-true formula.
	TrueF = &Formula{op: opConst, b: true}
	// FalseF is the constant-false formula.
	FalseF = &Formula{op: opConst, b: false}
)

// Const returns the constant formula for b.
func Const(b bool) *Formula {
	if b {
		return TrueF
	}
	return FalseF
}

// Not returns ¬f, simplifying double negation and constants.
func Not(f *Formula) *Formula {
	switch f.op {
	case opConst:
		return Const(!f.b)
	case opNot:
		return f.kids[0]
	}
	return &Formula{op: opNot, kids: []*Formula{f}}
}

// And returns the conjunction of fs, dropping true conjuncts and
// short-circuiting on false.
func And(fs ...*Formula) *Formula { return junction(opAnd, fs) }

// Or returns the disjunction of fs, dropping false disjuncts and
// short-circuiting on true.
func Or(fs ...*Formula) *Formula { return junction(opOr, fs) }

// junction builds an And (o == opAnd) or Or node over fs: nil and
// neutral constants are dropped, the absorbing constant short-circuits,
// and kids of the same op are flattened in. A first pass sizes the
// kids slice exactly, so a node costs one slice allocation.
func junction(o op, fs []*Formula) *Formula {
	absorbing := o == opOr // the constant that decides the node
	n := 0
	var only *Formula
	for _, f := range fs {
		switch {
		case f == nil:
		case f.op == opConst:
			if f.b == absorbing {
				return Const(absorbing)
			}
		case f.op == o:
			n += len(f.kids) // at least two: junction builds no smaller node
		default:
			n++
			only = f
		}
	}
	switch {
	case n == 0:
		return Const(!absorbing)
	case n == 1:
		return only
	}
	kids := make([]*Formula, 0, n)
	for _, f := range fs {
		switch {
		case f == nil || f.op == opConst:
		case f.op == o:
			kids = append(kids, f.kids...)
		default:
			kids = append(kids, f)
		}
	}
	return &Formula{op: o, kids: kids}
}

// Implies returns f ⇒ g.
func Implies(f, g *Formula) *Formula { return Or(Not(f), g) }

// Iff returns f ⇔ g.
func Iff(f, g *Formula) *Formula {
	if f.op == opConst {
		if f.b {
			return g
		}
		return Not(g)
	}
	if g.op == opConst {
		if g.b {
			return f
		}
		return Not(f)
	}
	return And(Or(Not(f), g), Or(f, Not(g)))
}

// ITE returns the boolean if-then-else: cond ? t : e.
func ITE(cond, t, e *Formula) *Formula {
	if cond.op == opConst {
		if cond.b {
			return t
		}
		return e
	}
	return And(Or(Not(cond), t), Or(cond, e))
}

// IsVar reports whether f is a variable leaf, as BoolVar returns.
func (f *Formula) IsVar() bool { return f.op == opVar }

// String renders the formula for debugging.
func (f *Formula) String() string {
	var sb strings.Builder
	f.write(&sb)
	return sb.String()
}

func (f *Formula) write(sb *strings.Builder) {
	switch f.op {
	case opConst:
		if f.b {
			sb.WriteString("⊤")
		} else {
			sb.WriteString("⊥")
		}
	case opVar:
		fmt.Fprintf(sb, "b%d", f.v)
	case opNot:
		sb.WriteString("¬")
		f.kids[0].write(sb)
	case opAnd, opOr:
		sep := " ∧ "
		if f.op == opOr {
			sep = " ∨ "
		}
		sb.WriteString("(")
		for i, k := range f.kids {
			if i > 0 {
				sb.WriteString(sep)
			}
			k.write(sb)
		}
		sb.WriteString(")")
	}
}
