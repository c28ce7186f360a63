package smt

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/sat"
)

// Context owns a SAT solver and the bookkeeping that maps SMT-level
// variables and terms onto SAT variables. A Context is not safe for
// concurrent use; AED runs one Context per destination prefix when
// solving in parallel.
type Context struct {
	solver *sat.Solver

	// Boolean variables by dense index (Formula.v): the backing SAT
	// variable.
	vars []sat.Var

	soft []softConstraint

	// The Tseitin memo: the definitional literal of every encoded node,
	// so shared subformulas (ubiquitous in the routing encoding, where
	// filter and forwarding formulas feed many constraints) are encoded
	// once. It lives on the nodes themselves, stamped with id (see
	// Formula); foreign holds the nodes this context may not stamp — the
	// shared constants and nodes already stamped by another context.
	id      uint32
	foreign map[*Formula]sat.Lit

	// Structural hash-consing: the memo above only collapses physically
	// shared nodes, but the encoder rebuilds structurally identical
	// subformulas per env × router × peer (adjacency sides, `preferred`
	// chains, filter outcomes). internTab interns encoded nodes by their
	// constructor-computed structural hash so every such rebuild reuses
	// one definitional literal instead of emitting fresh CNF (see
	// intern.go and docs/PERFORMANCE.md §hash-consing).
	internOn     bool
	internTab    internTable
	internHits   int
	internMisses int

	// parked records that Park has run: the encoding-time tables are
	// gone. parkVars and parkClauses are the solver's variable and
	// problem-clause counts when Park last compacted it.
	parked                bool
	parkVars, parkClauses int

	// litBuf is a stack of clause literals under construction, shared
	// by nested gate encodings (each works above its caller's mark).
	litBuf []sat.Lit

	// hardCount counts the clauses lower has added (see HardClauses).
	hardCount int

	// Retractable assertions (see retract.go): each entry's selector is
	// assumed — positively while active, negatively once retracted — on
	// every SAT call made through solveTimed. selIdx maps selector
	// literals back to handles for RetractableCore; selAsm is the
	// per-solve assumption scratch buffer.
	retract []retractEntry
	selIdx  map[sat.Lit]Handle
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
	f      *Formula
	weight int
	label  string
}

// contextIDs hands out Context ids, the owner stamps of node-resident
// Tseitin literals. 0 means "not stamped" and is skipped. Ids are 32
// bits and wrap after 2^32 contexts; a node outliving that many
// contexts is not a case the encoder produces (its formulas live as
// long as their context).
var contextIDs atomic.Uint32

func nextContextID() uint32 {
	for {
		if id := contextIDs.Add(1); id != 0 {
			return id
		}
	}
}

// NewContext returns a fresh solving context with structural
// hash-consing enabled.
func NewContext() *Context {
	return &Context{
		solver:   sat.New(),
		id:       nextContextID(),
		internOn: true,
		totalN:   -1,
	}
}

// SetInterning toggles structural hash-consing of encoded formula
// nodes (default on). Disabling it restores the pointer-keyed-only
// Tseitin cache, which TestInternedAgreesWithNoIntern uses to check
// that interning changes neither verdict nor optimum and never emits
// more CNF; it must be toggled before constraints that should be
// affected are asserted.
func (c *Context) SetInterning(on bool) { c.internOn = on }

// Park readies a context that stays alive between searches — a live
// per-destination instance waiting for its next re-solve — by
// releasing what only encoding reads. It drops the intern table and
// the foreign-node memo, which between them reach every formula node
// the context ever encoded, and the clause-literal stack, and turns
// interning off for good (SetInterning must not turn it back on). A
// formula asserted after Park (a retractable anchor for a value first
// seen by a rebind) is still encoded correctly: a node Park forgot
// gets a fresh Tseitin literal whose definition is equivalent to the
// old one, so the instance stays equisatisfiable. Nodes the context
// stamped keep their literal on the node.
//
// Park also compacts the SAT solver (sat.Solver.Compact), trimming
// the spare capacity encoding left behind. A later Park — one per
// re-solve of the instance — compacts again only when the solver grew
// variables or problem clauses since (the first warm re-solve builds
// the MaxSAT totalizer, regrowing the compacted watch lists and arena
// geometrically); otherwise it returns at once. Learned clauses alone
// do not count: every search adds them, and the clause database
// collector reclaims them.
func (c *Context) Park() {
	vars, _, clauses := c.solver.Size()
	if c.parked && vars == c.parkVars && clauses == c.parkClauses {
		return
	}
	c.parked = true
	c.internOn = false
	c.internTab = internTable{}
	c.foreign = nil
	c.litBuf = nil
	c.solver.Compact()
	c.parkVars, c.parkClauses = vars, clauses
}

// InternStats reports how many Tseitin encodings were served from the
// structural intern table (hits) versus freshly emitted (misses).
func (c *Context) InternStats() (hits, misses int) {
	return c.internHits, c.internMisses
}

// BoolVar allocates a fresh boolean variable and returns it as a
// formula.
func (c *Context) BoolVar() *Formula {
	idx := len(c.vars)
	c.vars = append(c.vars, c.solver.NewVar())
	return varFormula(idx)
}

// satVar returns the SAT variable backing a formula variable.
func (c *Context) satVar(f *Formula) sat.Var {
	if f.v < 0 || int(f.v) >= len(c.vars) {
		panic(fmt.Sprintf("smt: unknown variable b%d", f.v))
	}
	return c.vars[f.v]
}

// freshSatVar allocates an anonymous SAT variable for Tseitin
// definitions.
func (c *Context) freshSatVar() sat.Var { return c.solver.NewVar() }

// Assert adds f as a hard constraint, lowered straight to clauses (see
// lower).
func (c *Context) Assert(f *Formula) { c.lower(len(c.litBuf), f) }

// lower adds the clauses of f, each prefixed by the guard literals
// litBuf[gmark:] — none for Assert, ¬sel for AssertRetractable — and
// leaves litBuf as it found it. It is the one clausal path of the
// package: only the top of f is lowered, nested subformulas get the
// full Tseitin encoding (tseitin).
//
// A top-level conjunction is lowered conjunct by conjunct, and a
// top-level disjunction (or any other formula, a one-kid disjunction)
// becomes clauses without gate variables for its kids where their
// shape allows:
//
//   - a negated conjunction ¬(k₁ ∧ … ∧ kₙ) is spliced in as the
//     literals ¬k₁ … ¬kₙ (De Morgan);
//   - one conjunction kid D — an And, or a negated Or; the one with the
//     most conjuncts, the first of those — is distributed: with g the
//     literals of the other kids, each conjunct dᵢ of D yields the
//     clause [guard…, g…, lits(dᵢ)], where a conjunct that is itself a
//     disjunction (an Or, or a negated And) contributes its kids'
//     literals. Any other conjunction kid gets a gate: distributing two
//     would multiply their clauses.
//
// A kid that already has a literal in this context (the node memo or
// the intern table) is taken as that one literal instead: the clauses
// it would cost were emitted with its definition.
func (c *Context) lower(gmark int, f *Formula) {
	switch f.op {
	case opConst:
		if !f.b {
			// The guard alone: the empty clause under Assert.
			c.addClause(gmark)
		}
		return
	case opAnd:
		for _, k := range f.kids {
			c.lower(gmark, k)
		}
		return
	}
	kids := f.kids
	if f.op != opOr {
		kids = []*Formula{f}
	}
	mark := len(c.litBuf)
	var conj *Formula
	for _, k := range kids {
		if isConjunction(k) {
			if l, ok := c.knownLit(k); ok {
				c.litBuf = append(c.litBuf, l)
				continue
			}
			if conj == nil {
				conj = k
				continue
			}
			if conjuncts(k) > conjuncts(conj) {
				conj, k = k, conj
			}
		}
		c.pushDisjunct(k, false)
	}
	if conj == nil {
		c.addClause(gmark)
	} else {
		// conj is d₁ ∧ … ∧ dₙ, or ¬(d₁ ∨ … ∨ dₙ): one clause per dᵢ,
		// or per ¬dᵢ.
		ds, neg := conj.kids, false
		if conj.op == opNot {
			ds, neg = conj.kids[0].kids, true
		}
		for _, d := range ds {
			top := len(c.litBuf)
			c.pushDisjunct(d, neg)
			c.addClause(gmark)
			c.litBuf = c.litBuf[:top]
		}
	}
	c.litBuf = c.litBuf[:mark]
}

// isConjunction reports whether f is an And or a negated Or, the
// shapes lower distributes.
func isConjunction(f *Formula) bool {
	return f.op == opAnd || f.op == opNot && f.kids[0].op == opOr
}

// conjuncts returns the number of conjuncts of a conjunction.
func conjuncts(f *Formula) int {
	if f.op == opNot {
		return len(f.kids[0].kids)
	}
	return len(f.kids)
}

// pushDisjunct pushes onto litBuf literals whose disjunction is
// equivalent to f, or to ¬f when neg is set: the kids' literals of a
// disjunction, the negated kids' literals of a negated conjunction (De
// Morgan), and one literal otherwise or when the disjunction already
// has a literal in this context.
func (c *Context) pushDisjunct(f *Formula, neg bool) {
	if f.op == opNot {
		f, neg = f.kids[0], !neg
	}
	if f.op == opOr && !neg || f.op == opAnd && neg {
		if _, ok := c.cachedLit(f); !ok {
			for _, k := range f.kids {
				c.pushLit(c.tseitin(k), neg)
			}
			return
		}
	}
	c.pushLit(c.tseitin(f), neg)
}

// pushLit pushes l, negated when neg is set, onto litBuf.
func (c *Context) pushLit(l sat.Lit, neg bool) {
	if neg {
		l = l.Neg()
	}
	c.litBuf = append(c.litBuf, l)
}

// addClause adds the clause litBuf[gmark:] as a hard constraint.
func (c *Context) addClause(gmark int) {
	c.solver.AddClause(c.litBuf[gmark:]...)
	c.hardCount++
}

// AssertSoft registers f as a soft constraint with the given positive
// weight. Soft constraints are maximized by Maximize.
func (c *Context) AssertSoft(f *Formula, weight int, label string) {
	if weight <= 0 {
		panic("smt: soft constraint weight must be positive")
	}
	c.soft = append(c.soft, softConstraint{f: f, weight: weight, label: label})
}

// NumSoft returns the number of registered soft constraints.
func (c *Context) NumSoft() int { return len(c.soft) }

// HardClauses returns the number of clauses the lowering of hard
// constraints (Assert, AssertRetractable) has added: every distributed
// clause counts, Tseitin definitions of nested subformulas do not.
func (c *Context) HardClauses() int { return c.hardCount }

// NumSATVars exposes the size of the underlying SAT problem.
func (c *Context) NumSATVars() int { return c.solver.NumVars() }

// NumSATClauses exposes the number of CNF clauses held by the
// underlying solver (the post-Tseitin problem size; unit clauses are
// absorbed into root-level assignments and not counted).
func (c *Context) NumSATClauses() int { return c.solver.NumClauses() }

// Grow preallocates solver storage for n upcoming variables; the
// domain materializers (IntVarOf, NatVarOf, totalizer, AtMost) use it
// so their variable bursts extend the solver's per-variable slices in
// one step.
func (c *Context) Grow(n int) { c.solver.Grow(n) }

// Reserve presizes the context for an encoding of about the given
// Size — typically that of a sibling instance or of this destination's
// previous encoding: the solver's storage (sat.Solver.Reserve) and the
// intern table, which holds about one node per SAT variable. It changes
// neither the CNF nor the search, only how often storage regrows.
func (c *Context) Reserve(vars, words, clauses int) {
	c.solver.Reserve(vars, words, clauses)
	if c.internOn {
		c.internTab.reserve(vars)
	}
}

// Size reports the SAT problem's variable count, clause-arena words and
// problem clause count, the arguments Reserve takes.
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

// tseitin returns a literal equisatisfiably representing f, memoized
// per formula node and, when interning is on, per structural key: a
// rebuilt-but-identical subformula reuses the definitional literal of
// its first encoding and emits no new clauses.
func (c *Context) tseitin(f *Formula) sat.Lit {
	if f.op == opVar { // a variable is its own literal, never memoized
		return sat.PosLit(c.satVar(f))
	}
	if l, ok := c.cachedLit(f); ok {
		return l
	}
	l := c.tseitinUncached(f)
	if c.internOn && f.op != opConst {
		c.internMisses++
		c.internTab.insert(f, l)
	}
	c.remember(f, l)
	return l
}

// cachedLit returns the literal f already has in this context — from
// the node memo, the foreign map or, when interning is on, the intern
// table — without encoding anything. f is not a variable.
func (c *Context) cachedLit(f *Formula) (sat.Lit, bool) {
	m := f.memo.Load()
	if uint32(m>>32) == c.id {
		return sat.Lit(uint32(m)), true
	}
	if m != 0 || f.op == opConst {
		if l, ok := c.foreign[f]; ok {
			return l, true
		}
	}
	if c.internOn && f.op != opConst {
		if l, ok := c.internTab.lookup(f); ok {
			c.internHits++
			c.remember(f, l)
			return l, true
		}
	}
	return 0, false
}

// knownLit returns the literal a conjunction lower would distribute
// already has in this context, if any: a negated disjunction's is its
// kid's, negated.
func (c *Context) knownLit(f *Formula) (sat.Lit, bool) {
	if f.op == opNot {
		l, ok := c.cachedLit(f.kids[0])
		return l.Neg(), ok
	}
	return c.cachedLit(f)
}

// remember records l as f's literal in this context: on the node when
// this context wins its stamp, in the foreign map otherwise.
func (c *Context) remember(f *Formula, l sat.Lit) {
	if f.op != opConst && f.memo.CompareAndSwap(0, uint64(c.id)<<32|uint64(uint32(l))) {
		return
	}
	if c.foreign == nil {
		c.foreign = make(map[*Formula]sat.Lit)
	}
	c.foreign[f] = l
}

// structEq reports structural equality of two formulas. Interned DAGs
// converge to shared pointers quickly, so the pointer fast path keeps
// repeated comparisons cheap, and the constructor hashes reject most
// mismatches without descending.
func structEq(a, b *Formula) bool {
	if a == b {
		return true
	}
	if a.hash != b.hash || a.op != b.op || len(a.kids) != len(b.kids) {
		return false
	}
	switch a.op {
	case opConst:
		return a.b == b.b
	case opVar:
		return a.v == b.v
	}
	for i := range a.kids {
		if !structEq(a.kids[i], b.kids[i]) {
			return false
		}
	}
	return true
}

func (c *Context) tseitinUncached(f *Formula) sat.Lit {
	switch f.op {
	case opConst:
		// Encode a constant as a fixed fresh variable.
		v := c.freshSatVar()
		if f.b {
			c.solver.AddClause(sat.PosLit(v))
		} else {
			c.solver.AddClause(sat.NegLit(v))
		}
		return sat.PosLit(v)
	case opNot:
		return c.tseitin(f.kids[0]).Neg()
	case opAnd, opOr:
		out := sat.PosLit(c.freshSatVar())
		// The kids' literals are stacked on litBuf above the caller's
		// mark: nested encodings push and pop above them.
		mark := len(c.litBuf)
		for _, k := range f.kids {
			l := c.tseitin(k)
			c.litBuf = append(c.litBuf, l)
		}
		kids := c.litBuf[mark:]
		if f.op == opAnd {
			// out -> each kid; all kids -> out
			for i, kl := range kids {
				c.solver.AddClause(out.Neg(), kl)
				kids[i] = kl.Neg()
			}
			c.litBuf = append(c.litBuf, out)
		} else {
			// each kid -> out; out -> some kid
			for _, kl := range kids {
				c.solver.AddClause(kl.Neg(), out)
			}
			c.litBuf = append(c.litBuf, out.Neg())
		}
		c.solver.AddClause(c.litBuf[mark:]...)
		c.litBuf = c.litBuf[:mark]
		return out
	}
	panic("smt: unknown formula op")
}

// Model is a satisfying assignment for the SMT-level variables.
type Model struct {
	ctx    *Context
	assign []sat.Tribool
}

// Bool returns the model value of a boolean variable formula.
func (m *Model) Bool(f *Formula) bool {
	if f.op == opConst {
		return f.b
	}
	if f.op == opNot {
		return !m.Bool(f.kids[0])
	}
	if f.op != opVar {
		return m.Eval(f)
	}
	if int(f.v) >= len(m.ctx.vars) {
		return false
	}
	v := m.ctx.vars[f.v]
	return int(v) < len(m.assign) && m.assign[v] == sat.True
}

// Eval evaluates an arbitrary formula under the model.
func (m *Model) Eval(f *Formula) bool {
	switch f.op {
	case opConst:
		return f.b
	case opVar:
		return m.Bool(f)
	case opNot:
		return !m.Eval(f.kids[0])
	case opAnd:
		for _, k := range f.kids {
			if !m.Eval(k) {
				return false
			}
		}
		return true
	case opOr:
		for _, k := range f.kids {
			if m.Eval(k) {
				return true
			}
		}
		return false
	}
	panic("smt: unknown formula op")
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
func (c *Context) Solve() *Model {
	if c.solveTimed() != sat.Sat {
		return nil
	}
	return &Model{ctx: c, assign: c.solver.Model()}
}

// SolveAssuming checks satisfiability under extra assumption formulas
// (each must be a variable or negated variable).
func (c *Context) SolveAssuming(assumptions ...*Formula) *Model {
	lits := make([]sat.Lit, len(assumptions))
	for i, a := range assumptions {
		lits[i] = c.mustLit(a)
	}
	if c.solveTimed(lits...) != sat.Sat {
		return nil
	}
	return &Model{ctx: c, assign: c.solver.Model()}
}

// UnsatCore checks satisfiability under the assumption formulas and,
// when unsatisfiable, returns the indices of a responsible subset of
// the assumptions (not necessarily minimal). It returns (nil, true)
// when satisfiable.
func (c *Context) UnsatCore(assumptions []*Formula) (core []int, sat_ bool) {
	lits := make([]sat.Lit, len(assumptions))
	byLit := make(map[sat.Lit]int, len(assumptions))
	for i, a := range assumptions {
		lits[i] = c.mustLit(a)
		byLit[lits[i]] = i
	}
	if c.solveTimed(lits...) == sat.Sat {
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
func (c *Context) MinimizeCore(assumptions []*Formula, core []int) []int {
	cur := append([]int(nil), core...)
	for i := 0; i < len(cur); {
		trial := make([]*Formula, 0, len(cur)-1)
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

func (c *Context) mustLit(f *Formula) sat.Lit {
	switch f.op {
	case opVar:
		return sat.PosLit(c.satVar(f))
	case opNot:
		if f.kids[0].op == opVar {
			return sat.NegLit(c.satVar(f.kids[0]))
		}
	}
	return c.tseitin(f)
}
