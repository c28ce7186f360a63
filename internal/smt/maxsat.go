package smt

import (
	"math"
	"slices"

	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/sat"
)

// Strategy selects the weighted-MaxSAT search algorithm.
type Strategy int

// MaxSAT strategies. All find an assignment of maximum total satisfied
// soft-constraint weight subject to the hard constraints; they differ
// in how they search the cost space (an ablation axis in DESIGN.md §5).
const (
	// Auto, the zero value, picks the search from the context's state:
	// core-guided on its first Maximize call, linear descent on every
	// later one. A fresh instance has no counting circuitry yet, and
	// core-guided search reaches the optimum in a fraction of linear
	// descent's solver calls without building one; a warm re-solve of
	// a live instance (a tier-2 rebind) runs faster as linear descent
	// over the memoized totalizer and the solver's saved phases. See
	// docs/PERFORMANCE.md §MaxSAT search.
	Auto Strategy = iota
	// LinearDescent solves, reads the current cost, then repeatedly
	// asks for strictly better solutions until UNSAT.
	LinearDescent
	// CoreGuided relaxes unsatisfiable cores Fu–Malik style
	// (weighted via clause cloning on the minimum core weight).
	CoreGuided
)

// String names the search: "auto", "linear" or "core".
func (s Strategy) String() string {
	switch s {
	case LinearDescent:
		return "linear"
	case CoreGuided:
		return "core"
	}
	return "auto"
}

// MaxResult is the outcome of Maximize.
type MaxResult struct {
	Model *Model // nil when the hard constraints are unsatisfiable
	// SatisfiedWeight is the total weight of satisfied soft constraints.
	SatisfiedWeight int
	// ViolatedWeight is the total weight of violated soft constraints.
	ViolatedWeight int
	// Violated lists the labels of violated soft constraints.
	Violated []string
	// Iterations counts solver calls made by the search.
	Iterations int
	// Search is the strategy that ran: the requested one, or the one
	// Auto picked (never Auto itself).
	Search Strategy
	// Err is non-nil when the search was interrupted by a SetInterrupt
	// context before completing; Model is nil then and the result must
	// not be read as UNSAT.
	Err error
}

// Maximize finds a model of the hard constraints maximizing the total
// weight of satisfied soft constraints. It returns a result with a nil
// Model if the hard constraints alone are unsatisfiable.
func (c *Context) Maximize(strategy Strategy) *MaxResult {
	if strategy == Auto {
		strategy = LinearDescent
		if !c.maximized {
			strategy = CoreGuided
		}
	}
	var res *MaxResult
	switch strategy {
	case CoreGuided:
		res = c.maximizeCoreGuided()
	default:
		res = c.maximizeLinear()
	}
	c.maximized = true
	res.Search = strategy
	return res
}

// relaxSoft materializes exactly one relaxation literal per soft
// constraint and returns it with a parallel weight table: r true ⇔ the
// constraint may be violated, at cost weight. The weighted totalizer
// consumes (lit, weight) pairs directly, so the input stays one entry
// per constraint instead of weight-many clones — compact even once
// non-unit weights appear.
func (c *Context) relaxSoft() (relax []sat.Lit, weights []int) {
	c.Grow(len(c.soft))
	relax = make([]sat.Lit, 0, len(c.soft))
	weights = make([]int, 0, len(c.soft))
	for i := range c.soft {
		s := &c.soft[i]
		r := sat.PosLit(c.freshSatVar())
		fl := c.tseitin(s.f)
		// ¬f -> r   (if the soft constraint fails, pay the cost)
		c.solver.AddClause(fl, r)
		relax = append(relax, r)
		weights = append(weights, s.weight)
	}
	return relax, weights
}

// softOuts returns totalizer output literals that can bound the
// violated weight below any cost up to need: out[k] means "violated
// weight ≥ k+1", and there are at least min(need, total soft weight)
// outputs. It builds the relaxation clauses and the weighted totalizer
// on first use and reuses them on every later Maximize call that needs
// no more outputs. The memo is keyed on the soft-set size: a live
// context re-solved after retractable rebinds (same softs, flipped
// selectors) reuses the counting circuitry outright, while adding soft
// constraints, or needing a bound the totalizer is too narrow for,
// rebuilds it. The stale totalizer left behind by a rebuild is inert —
// its inputs are ordinary relaxation variables the solver is free to
// set false.
func (c *Context) softOuts(need int) []sat.Lit {
	if c.totalN != len(c.soft) {
		c.totalOuts, c.totalN = nil, len(c.soft)
	}
	total := 0
	for i := range c.soft {
		total += c.soft[i].weight
	}
	if len(c.totalOuts) < min(need, total) {
		// Widen at least twofold, so a cost that keeps climbing
		// rebuilds O(log total) times, not once per re-solve.
		relax, weights := c.relaxSoft()
		c.totalOuts = c.weightedTotalizer(relax, weights, max(need, 2*len(c.totalOuts)))
	}
	return c.totalOuts
}

func (c *Context) maximizeLinear() *MaxResult {
	res := &MaxResult{}
	if len(c.soft) == 0 {
		res.Iterations++
		if c.solveTimed() != sat.Sat {
			res.Err = c.Err()
			return res
		}
		res.Model = &Model{ctx: c, assign: c.solver.Model()}
		return res
	}
	// A context no search has run on builds the full totalizer before
	// its first solve. A warm one (a tier-2 re-solve) reuses its memo,
	// or, after a core-guided cold solve, builds one only as wide as
	// its first model's cost: the search never bounds above that cost,
	// and a full-width totalizer over hundreds of soft constraints
	// would dominate the re-solve.
	if !c.maximized {
		c.softOuts(math.MaxInt)
	}
	res.Iterations++
	if c.solveTimed() != sat.Sat {
		res.Err = c.Err()
		return res
	}
	best := c.solver.Model()
	bestCost := c.costOf(best)
	outs := c.softOuts(bestCost)
	// The flight recorder sees every bound movement of the search: the
	// initial feasible cost and each subsequent tightening, so a live
	// /recorder drain shows whether a long MaxSAT solve is converging
	// or stuck re-proving the same bound.
	c.rec.Record(obs.EvBoundTighten, int64(bestCost), int64(res.Iterations))

	for bestCost > 0 {
		res.Iterations++
		if c.solveTimed(outs[bestCost-1].Neg()) != sat.Sat {
			if err := c.Err(); err != nil {
				res.Err = err
				return res
			}
			break
		}
		best = c.solver.Model()
		bestCost = c.costOf(best)
		c.rec.Record(obs.EvBoundTighten, int64(bestCost), int64(res.Iterations))
	}
	// The search may end on a call that failed to beat best (linear
	// descent always does); point the saved phases back at best so a
	// warm re-solve of this context (a tier-2 rebind) starts next to
	// the last optimum instead of the failed call's assignment.
	c.solver.SetPhases(best)
	c.finishResult(res, best)
	return res
}

// costOf computes the violated soft weight under a raw SAT model.
func (c *Context) costOf(model []sat.Tribool) int {
	m := &Model{ctx: c, assign: model}
	cost := 0
	for i := range c.soft {
		if !m.Eval(c.soft[i].f) {
			cost += c.soft[i].weight
		}
	}
	return cost
}

func (c *Context) finishResult(res *MaxResult, model []sat.Tribool) {
	res.Model = &Model{ctx: c, assign: model}
	for i := range c.soft {
		if res.Model.Eval(c.soft[i].f) {
			res.SatisfiedWeight += c.soft[i].weight
		} else {
			res.ViolatedWeight += c.soft[i].weight
			res.Violated = append(res.Violated, c.soft[i].label)
		}
	}
}

// maximizeCoreGuided implements a Fu–Malik-style core-guided search:
// soft constraints become assumptions; each UNSAT core gets relaxation
// variables with an at-most-one constraint, and the search repeats
// until the assumptions are satisfiable. Weighted handling follows the
// standard WPM1 split: a soft constraint with weight w participating in
// a core of minimum weight wmin is split into (w-wmin) and wmin parts.
//
// Before returning, the search retires its scaffolding by asserting
// the negation of every selector, relaxation and counter variable it
// created. Every clause that mentions them (¬a ∨ f, ¬na ∨ old ∨ r and
// the at-most-one counters) holds once they are all false, so retiring
// them removes no model of the hard constraints; it keeps later
// searches on a live instance from branching on dead variables. Each
// search creates fresh selectors.
func (c *Context) maximizeCoreGuided() *MaxResult {
	res := &MaxResult{}
	type softAsm struct {
		weight int
		asm    sat.Lit // assuming asm enforces the (relaxed) constraint
	}
	asms := make([]softAsm, 0, len(c.soft))
	var scaffold []sat.Lit
	defer func() {
		for _, l := range scaffold {
			c.solver.AddClause(l.Neg())
		}
	}()
	c.Grow(len(c.soft))
	for i := range c.soft {
		s := &c.soft[i]
		a := sat.PosLit(c.freshSatVar())
		fl := c.tseitin(s.f)
		// a -> f ; assuming a enforces the soft constraint.
		c.solver.AddClause(a.Neg(), fl)
		asms = append(asms, softAsm{weight: s.weight, asm: a})
		scaffold = append(scaffold, a)
	}
	var assumptions []sat.Lit
	inCore := make(map[sat.Lit]bool)
	for {
		assumptions = assumptions[:0]
		for _, a := range asms {
			assumptions = append(assumptions, a.asm)
		}
		// Deterministic order helps reproducibility.
		slices.Sort(assumptions)
		res.Iterations++
		if c.solveTimed(assumptions...) == sat.Sat {
			c.finishResult(res, c.solver.Model())
			c.rec.Record(obs.EvBoundTighten, int64(res.ViolatedWeight), int64(res.Iterations))
			return res
		}
		if err := c.Err(); err != nil {
			res.Err = err
			return res
		}
		clear(inCore)
		for _, l := range c.solver.FinalCore() {
			inCore[l] = true // FinalCore returns the assumptions themselves
		}
		// Find participating soft assumptions and the minimum weight.
		wmin := 0
		var idxs []int
		for i, a := range asms {
			if inCore[a.asm] {
				idxs = append(idxs, i)
				if wmin == 0 || a.weight < wmin {
					wmin = a.weight
				}
			}
		}
		if len(idxs) == 0 {
			// No soft assumption in the core: the hard constraints
			// (under the retractable selectors) are unsatisfiable.
			return res
		}
		c.rec.Record(obs.EvCoreRelaxed, int64(len(idxs)), int64(wmin))
		// Relax the core: each member gets a fresh relaxation r; the
		// old assumption is replaced by a new one allowing violation
		// when r is true, and at most one r per core may be true.
		c.Grow(2 * len(idxs))
		rs := make([]sat.Lit, 0, len(idxs))
		for _, i := range idxs {
			old := asms[i]
			r := sat.PosLit(c.freshSatVar())
			na := sat.PosLit(c.freshSatVar())
			// na -> (old constraint holds OR r): re-enforce through
			// the old assumption literal's definition.
			c.solver.AddClause(na.Neg(), old.asm, r)
			if old.weight > wmin {
				// Split: keep (w - wmin) on the original assumption.
				asms = append(asms, softAsm{weight: old.weight - wmin, asm: old.asm})
			}
			asms[i] = softAsm{weight: wmin, asm: na}
			rs = append(rs, r)
			scaffold = append(scaffold, r, na)
		}
		scaffold = append(scaffold, c.atMost(1, rs)...)
	}
}
