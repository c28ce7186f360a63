package smt

import "github.com/aed-net/aed/internal/sat"

// weightedTotalizer builds a totalizer whose k-th output means "total
// violated weight ≥ k+1", with one input literal per soft constraint
// and its integer weight alongside. A weight-w leaf is the degenerate
// unary counter [l, l, …, l] (w copies): its count jumps from 0 to w
// when l is true, at no extra variables or clauses. The merge tree is
// the standard totalizer merge, so the outputs stay a monotone unary
// counter: the MaxSAT engine tightens the bound incrementally by
// assuming ¬out[k] for decreasing k, without rebuilding the formula.
// Every counter is cut at width outputs, saturating at "≥ width": a
// search that never bounds the cost at width or above needs no more,
// and the cut turns the merges' quadratic clause count into
// O(width²) per node.
func (c *Context) weightedTotalizer(inputs []sat.Lit, weights []int, width int) []sat.Lit {
	if len(inputs) == 0 {
		return nil
	}
	nodes := make([][]sat.Lit, 0, len(inputs))
	for i, l := range inputs {
		leaf := make([]sat.Lit, min(weights[i], width))
		for j := range leaf {
			leaf[j] = l
		}
		nodes = append(nodes, leaf)
	}
	// Balanced pairwise merging keeps the tree depth logarithmic.
	for len(nodes) > 1 {
		next := nodes[:0]
		for i := 0; i+1 < len(nodes); i += 2 {
			next = append(next, c.totalizerMerge(nodes[i], nodes[i+1], width))
		}
		if len(nodes)%2 == 1 {
			next = append(next, nodes[len(nodes)-1])
		}
		nodes = next
	}
	return nodes[0]
}

// totalizerMerge fuses two unary counters into one of width
// min(len(left)+len(right), width), emitting the standard totalizer
// clauses. The clause for a split a+b above the cut is skipped: it
// could only force out[width-1], which the clause for a split a'+b' =
// width with a' ≤ a and b' ≤ b already forces, the inputs being
// monotone.
func (c *Context) totalizerMerge(left, right []sat.Lit, width int) []sat.Lit {
	if len(left) == 0 {
		return right
	}
	if len(right) == 0 {
		return left
	}
	n := min(len(left)+len(right), width)
	c.Grow(n)
	out := make([]sat.Lit, n)
	for i := range out {
		out[i] = sat.PosLit(c.freshSatVar())
	}
	// For every split a+b = k (a ones from left, b ones from right):
	// left[a-1] ∧ right[b-1] -> out[a+b-1].
	for a := 0; a <= len(left); a++ {
		for b := 0; b <= len(right); b++ {
			k := a + b
			if k == 0 || k > n {
				continue
			}
			var buf [3]sat.Lit
			clause := buf[:0]
			if a > 0 {
				clause = append(clause, left[a-1].Neg())
			}
			if b > 0 {
				clause = append(clause, right[b-1].Neg())
			}
			clause = append(clause, out[k-1])
			c.solver.AddClause(clause...)
		}
	}
	// Monotonicity: out[k] -> out[k-1], so assuming ¬out[k] implies
	// nothing above k either; keeps the outputs a unary counter.
	for k := 1; k < n; k++ {
		c.solver.AddClause(out[k].Neg(), out[k-1])
	}
	return out
}

// AtMost asserts that at most k of the formulas hold, using a
// sequential-counter encoding. For k==0 it simply asserts all
// negations.
func (c *Context) AtMost(k int, fs ...*Formula) {
	if k < 0 {
		panic("smt: negative cardinality bound")
	}
	if k >= len(fs) {
		return
	}
	lits := make([]sat.Lit, len(fs))
	for i, f := range fs {
		lits[i] = c.tseitin(f)
	}
	c.atMost(k, lits)
}

// atMost emits AtMost's clauses over literals and returns the counter
// variables it introduced (as positive literals). Every clause holds
// once all inputs and counter variables are false.
func (c *Context) atMost(k int, lits []sat.Lit) (aux []sat.Lit) {
	if k >= len(lits) {
		return nil
	}
	if k == 0 {
		for _, l := range lits {
			c.solver.AddClause(l.Neg())
		}
		return nil
	}
	// Sequential counter (Sinz 2005): s[i][j] = "at least j+1 true
	// among the first i+1 inputs".
	n := len(lits)
	c.Grow(n * k)
	aux = make([]sat.Lit, n*k)
	for i := range aux {
		aux[i] = sat.PosLit(c.freshSatVar())
	}
	s := make([][]sat.Lit, n)
	for i := range s {
		s[i] = aux[i*k : (i+1)*k]
	}
	c.solver.AddClause(lits[0].Neg(), s[0][0])
	for j := 1; j < k; j++ {
		c.solver.AddClause(s[0][j].Neg())
	}
	for i := 1; i < n; i++ {
		c.solver.AddClause(lits[i].Neg(), s[i][0])
		c.solver.AddClause(s[i-1][0].Neg(), s[i][0])
		for j := 1; j < k; j++ {
			c.solver.AddClause(lits[i].Neg(), s[i-1][j-1].Neg(), s[i][j])
			c.solver.AddClause(s[i-1][j].Neg(), s[i][j])
		}
		c.solver.AddClause(lits[i].Neg(), s[i-1][k-1].Neg())
	}
	return aux
}

// AtLeast asserts that at least k of the formulas hold.
func (c *Context) AtLeast(k int, fs ...*Formula) {
	if k <= 0 {
		return
	}
	if k > len(fs) {
		c.Assert(FalseF)
		return
	}
	// at-least-k(fs) == at-most-(n-k)(¬fs)
	neg := make([]*Formula, len(fs))
	for i, f := range fs {
		neg[i] = Not(f)
	}
	c.AtMost(len(fs)-k, neg...)
}

// ExactlyOne asserts exactly one of fs holds.
func (c *Context) ExactlyOne(fs ...*Formula) { c.assertExactlyOne(fs) }
