// Package smt layers a small satisfiability-modulo-theories facility on
// top of the CDCL core in internal/sat. It provides:
//
//   - boolean gates over solver literals (And and Or; ¬ is Lit.Neg) that
//     fold constants and add their Tseitin clauses once per call, and
//     clause-level assertions (plain, guarded and retractable), so a
//     caller states each constraint's top as clauses and builds gates
//     only for what it nests,
//   - finite-domain integer variables and terms with comparisons,
//     equality, and constant offsets (sufficient for route metrics such
//     as local preference, administrative distance, and path cost),
//   - cardinality constraints (sequential counter and totalizer
//     encodings), and
//   - weighted MaxSAT with selectable search strategies, which is how
//     AED's management objectives become "soft" constraints.
//
// This package substitutes for the Z3 MaxSMT solver used by the paper's
// artifact (DESIGN.md §2): AED's encoding is finite — the paper itself
// replaces integer metrics by (2n+1) boolean choices — so finite-domain
// reasoning over a SAT core preserves the semantics.
package smt

import (
	"context"
	"time"

	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/sat"
)

// Context owns a SAT solver and the bookkeeping of the constraints
// asserted over its literals. A Context is not safe for concurrent
// use; AED runs one Context per destination prefix when solving in
// parallel.
type Context struct {
	solver *sat.Solver

	// tru is the context's constant-true literal, pinned by a unit
	// clause (see True).
	tru sat.Lit

	soft []softConstraint

	// gateHits counts gate requests answered without a new variable,
	// gateMisses the gate variables created (InternStats).
	gateHits, gateMisses int

	// parked records that Park has run: the encoding-time buffers are
	// gone. parkVars and parkClauses are the solver's variable and
	// problem-clause counts when Park last compacted it.
	parked                bool
	parkVars, parkClauses int

	// litBuf is a stack of clause literals under construction, shared
	// by the gates and the clause-level assertions (each works above
	// its caller's mark).
	litBuf []sat.Lit

	// Retractable assertions (see retract.go): each entry's selector is
	// assumed — positively while active, negatively once retracted — on
	// every SAT call made through solveTimed. selAsm is the per-solve
	// assumption scratch buffer.
	retract []retractEntry
	selAsm  []sat.Lit

	// totalOuts memoizes the soft-constraint relaxation and totalizer
	// (relaxSoft + weightedTotalizer) across Maximize calls, keyed on
	// the soft-set size (see softOuts): a live context re-solved after
	// a retractable rebind reuses the existing counting circuitry
	// instead of emitting a fresh totalizer per call. totalN is -1
	// until first built.
	totalN    int
	totalOuts []sat.Lit

	// maximized records that a Maximize call has finished on this
	// context: Auto searches core-guided until then and by linear
	// descent after, and linear descent sizes a totalizer it has to
	// build to its first model's cost from then on (maximizeLinear).
	maximized bool

	// reg, when set by Observe, receives solver metrics (decision/
	// conflict/restart counters, trail-depth samples, per-call solve
	// latencies). span, when set, parents the per-call solve spans.
	// rec is the registry's attached flight recorder (nil, a valid
	// no-op, when none is attached): restarts/reduceDB/arena-GC events
	// from the SAT layer and bound tightenings from the MaxSAT search
	// land in its ring.
	reg  *obs.Registry
	span *obs.Span
	rec  *obs.Recorder

	// ctx, when set by SetInterrupt, cancels in-flight SAT searches:
	// the solver polls ctx.Done at every conflict. interruptErr records
	// the cancellation cause once a solve call is actually interrupted.
	ctx          context.Context
	interruptErr error
}

type softConstraint struct {
	lit    sat.Lit
	weight int
	label  string
}

// NewContext returns a fresh solving context.
func NewContext() *Context {
	c := &Context{solver: sat.New(), totalN: -1}
	c.tru = c.BoolVar()
	c.solver.AddClause(c.tru)
	return c
}

// Park readies a context that stays alive between searches — a live
// per-destination instance waiting for its next re-solve — by
// releasing the clause-literal stack, which only encoding reads. A
// constraint asserted after Park (a retractable anchor for a value
// first seen by a rebind) is still encoded correctly: the stack is
// rebuilt on demand.
//
// Park also compacts the SAT solver (sat.Solver.Compact), trimming
// the spare capacity encoding left behind. A later Park — one per
// re-solve of the instance — compacts again only when the solver grew
// variables or problem clauses since (the first warm re-solve builds
// the MaxSAT totalizer, regrowing the compacted watch lists and arena
// geometrically); otherwise it returns at once. Problem clauses count
// binary ones, which grow the watch lists alone (sat.Solver.NumClauses,
// not Size). Learned clauses alone do not count: every search adds
// them, and the clause database collector reclaims them.
func (c *Context) Park() {
	vars, clauses := c.solver.NumVars(), c.solver.NumClauses()
	if c.parked && vars == c.parkVars && clauses == c.parkClauses {
		return
	}
	c.parked = true
	c.litBuf = nil
	c.solver.Compact()
	c.parkVars, c.parkClauses = vars, clauses
}

// InternStats reports how often the gates were spared a variable: hits
// are gate requests (And, Or and the IntVar threshold comparisons)
// answered without a new variable — folded to a constant or to their
// one remaining input, or served from an IntVar's threshold memo — and
// misses are the gate variables created. The name is that of the
// structural intern table it once reported on: perfbench
// (coldfleet.go, editstream.go) reads it as its smt.intern_hit_ratio.
func (c *Context) InternStats() (hits, misses int) {
	return c.gateHits, c.gateMisses
}

// AssertSoft registers l as a soft constraint with the given positive
// weight. Soft constraints are maximized by Maximize.
func (c *Context) AssertSoft(l sat.Lit, weight int, label string) {
	if weight <= 0 {
		panic("smt: soft constraint weight must be positive")
	}
	c.soft = append(c.soft, softConstraint{lit: l, weight: weight, label: label})
}

// NumSATVars exposes the size of the underlying SAT problem.
func (c *Context) NumSATVars() int { return c.solver.NumVars() }

// NumSATClauses exposes the number of CNF clauses held by the
// underlying solver (the post-Tseitin problem size; unit clauses are
// absorbed into root-level assignments and not counted).
func (c *Context) NumSATClauses() int { return c.solver.NumClauses() }

// Grow preallocates solver storage for n upcoming variables; the
// domain materializers (IntVarOf, NatVarOf, totalizer, atMost) use it
// so their variable bursts extend the solver's per-variable slices in
// one step.
func (c *Context) Grow(n int) { c.solver.Grow(n) }

// Reserve presizes the solver's storage (sat.Solver.Reserve) for an
// encoding of about the given Size — typically that of a sibling
// instance or of this destination's previous encoding. It changes
// neither the CNF nor the search, only how often storage regrows.
func (c *Context) Reserve(vars, words, clauses int) {
	c.solver.Reserve(vars, words, clauses)
}

// Size reports the SAT problem's variable count, clause-arena words and
// arena problem clause count, the arguments Reserve takes.
func (c *Context) Size() (vars, words, clauses int) { return c.solver.Size() }

// Stats returns the accumulated SAT-solver statistics.
func (c *Context) Stats() sat.Stats { return c.solver.Stats }

// Observe streams this context's solver activity into reg and parents
// solver-call latency samples under span. It installs a sampling hook
// on the underlying SAT solver that runs on the solving goroutine, so
// the live (unsynchronized) sat.Stats counters are published through
// the registry's atomic instruments instead of being read across
// goroutines: every AED worker can share one registry. Passing a nil
// registry (the default) leaves the solver hook-free with zero
// overhead.
func (c *Context) Observe(reg *obs.Registry, span *obs.Span) {
	c.reg = reg
	c.span = span
	c.rec = reg.FlightRecorder()
	if reg == nil {
		c.solver.Progress = nil
		c.solver.OnEvent = nil
		return
	}
	if rec := c.rec; rec != nil {
		c.solver.OnEvent = func(ev sat.SolverEvent, a, b int64) {
			switch ev {
			case sat.EventRestart:
				rec.Record(obs.EvRestart, a, b)
			case sat.EventReduceDB:
				rec.Record(obs.EvReduceDB, a, b)
			case sat.EventArenaGC:
				rec.Record(obs.EvArenaGC, a, b)
			}
		}
	} else {
		c.solver.OnEvent = nil
	}
	var last sat.Stats
	decisions := reg.Counter("solver.decisions")
	propagations := reg.Counter("solver.propagations")
	conflicts := reg.Counter("solver.conflicts")
	restarts := reg.Counter("solver.restarts")
	learned := reg.Counter("solver.learned")
	deleted := reg.Counter("solver.deleted")
	glue := reg.Counter("solver.glue_learned")
	lbdSum := reg.Counter("solver.lbd_sum")
	gcs := reg.Counter("solver.arena_gcs")
	trail := reg.Gauge("solver.trail_depth")
	learnts := reg.Gauge("solver.learnt_clauses")
	peak := reg.Gauge("solver.arena_peak_bytes")
	trailHist := reg.Histogram("solver.trail_depth_dist", obs.DepthBuckets)
	c.solver.Progress = func(p sat.ProgressSample) {
		d := p.Stats.Sub(last)
		last = p.Stats
		decisions.Add(d.Decisions)
		propagations.Add(d.Propagations)
		conflicts.Add(d.Conflicts)
		restarts.Add(d.Restarts)
		learned.Add(d.Learned)
		deleted.Add(d.Deleted)
		glue.Add(d.GlueLearned)
		lbdSum.Add(d.LBDSum)
		gcs.Add(d.ArenaGCs)
		trail.Set(int64(p.TrailDepth))
		learnts.Set(int64(p.LearntClauses))
		peak.Set(p.Stats.PeakClauseBytes)
		trailHist.Observe(float64(p.TrailDepth))
	}
}

// SetInterrupt arranges for in-flight and future SAT searches on this
// context to stop promptly once ctx is canceled: the CDCL solver polls
// ctx.Done at every conflict. A context that can never be canceled
// (e.g. context.Background) uninstalls the hook. After an interrupted
// solve, Err returns the cancellation cause.
func (c *Context) SetInterrupt(ctx context.Context) {
	c.interruptErr = nil
	if ctx == nil || ctx.Done() == nil {
		c.ctx = nil
		c.solver.Stop = nil
		return
	}
	c.ctx = ctx
	done := ctx.Done()
	c.solver.Stop = func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// Err returns the cancellation cause (ctx.Err of the SetInterrupt
// context) once a solve call has been interrupted, and nil otherwise.
// An interrupted solve reports Unknown/no-model; Err distinguishes
// that from genuine UNSAT.
func (c *Context) Err() error { return c.interruptErr }

// solveTimed is the instrumented path for every SAT Solve call made by
// the MaxSAT searches and satisfiability checks: it injects the
// retractable-assertion selector assumptions, records per-call latency
// into the registry when Observe has been installed, and latches the
// interrupt cause when the solver was stopped by a SetInterrupt
// context.
func (c *Context) solveTimed(assumptions ...sat.Lit) sat.Status {
	assumptions = c.withSelectors(assumptions)
	var st sat.Status
	if c.reg == nil {
		st = c.solver.Solve(assumptions...)
	} else {
		start := time.Now()
		// One span per SAT call, parented under the instance's
		// destination span: the sat-layer leaf of the request trace, so
		// aedtrace -request resolves a slow request down to the
		// individual CDCL searches it paid for.
		ssp := c.span.Child("sat.solve")
		st = c.solver.Solve(assumptions...)
		ssp.SetStr("status", st.String())
		ssp.SetInt("assumptions", int64(len(assumptions)))
		ssp.End()
		c.reg.Counter("solver.calls").Add(1)
		c.reg.Histogram("solver.solve_ms", obs.LatencyBuckets).
			Observe(float64(time.Since(start).Microseconds()) / 1000)
	}
	if st == sat.Unknown && c.ctx != nil && c.solver.Interrupted() {
		if err := c.ctx.Err(); err != nil {
			c.interruptErr = err
		}
	}
	return st
}

// Model is a satisfying assignment of the context's variables.
type Model struct {
	assign []sat.Tribool
}

// Bool returns l's value in the model; a variable created after the
// solve reads false.
func (m *Model) Bool(l sat.Lit) bool {
	v := l.Var()
	return (int(v) < len(m.assign) && m.assign[v] == sat.True) != l.Sign()
}

// Int returns the model value of an integer variable.
func (m *Model) Int(iv *IntVar) int {
	for i, ind := range iv.indicators {
		if m.Bool(ind) {
			return iv.domain[i]
		}
	}
	// Unconstrained integer: default to the first domain value.
	return iv.domain[0]
}

// Solve checks satisfiability of the hard constraints. It returns the
// model if satisfiable, nil otherwise.
func (c *Context) Solve() *Model { return c.SolveAssuming() }

// SolveAssuming checks satisfiability under extra assumption literals.
func (c *Context) SolveAssuming(assumptions ...sat.Lit) *Model {
	if c.solveTimed(assumptions...) != sat.Sat {
		return nil
	}
	return &Model{assign: c.solver.Model()}
}

// UnsatCore checks satisfiability under the assumption literals and,
// when unsatisfiable, returns the indices of a responsible subset of
// the assumptions (not necessarily minimal). It returns (nil, true)
// when satisfiable.
func (c *Context) UnsatCore(assumptions []sat.Lit) (core []int, sat_ bool) {
	byLit := make(map[sat.Lit]int, len(assumptions))
	for i, a := range assumptions {
		byLit[a] = i
	}
	if c.solveTimed(assumptions...) == sat.Sat {
		return nil, true
	}
	// FinalCore holds the responsible assumption subset directly;
	// retractable-assertion selectors in it are simply not in byLit.
	for _, l := range c.solver.FinalCore() {
		if idx, ok := byLit[l]; ok {
			core = append(core, idx)
		}
	}
	return core, false
}

// MinimizeCore shrinks an unsat core by deletion: repeatedly drop an
// assumption and keep the removal if the rest remains unsatisfiable.
func (c *Context) MinimizeCore(assumptions []sat.Lit, core []int) []int {
	cur := append([]int(nil), core...)
	for i := 0; i < len(cur); {
		trial := make([]sat.Lit, 0, len(cur)-1)
		for j, idx := range cur {
			if j != i {
				trial = append(trial, assumptions[idx])
			}
		}
		if _, satisfiable := c.UnsatCore(trial); !satisfiable {
			cur = append(cur[:i], cur[i+1:]...)
			continue
		}
		i++
	}
	return cur
}
