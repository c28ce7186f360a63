package sat

import (
	"slices"
	"sort"
)

type watcher struct {
	cref    CRef
	blocker Lit // cached literal; if true the clause is satisfied
}

type varInfo struct {
	reason CRef  // antecedent clause, CRefUndef for decisions
	level  int32 // decision level at which the variable was assigned
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
// A Solver is not safe for concurrent use; AED's per-destination
// parallelism uses one Solver per goroutine.
//
// Clauses of three or more literals live in a flat arena ([]Lit slab)
// addressed by 32-bit CRefs instead of per-clause heap allocations;
// binary clauses live only as their two watchers (see binTag). Learned
// clauses carry their literal block distance (LBD) and are managed
// Glucose-style: glue clauses (LBD ≤ 2, which includes every binary
// one) are never deleted, and reduceDB victims are chosen by (LBD,
// activity). See docs/PERFORMANCE.md.
type Solver struct {
	arena   arena
	clauses []CRef // problem clauses in the arena
	learnts []CRef // learned clauses in the arena

	// binClauses and binLearnts count the problem and learned binary
	// clauses, which are held only in the watch lists.
	binClauses int
	binLearnts int

	watches  [][]watcher // watches[lit] = clauses watching lit
	assigns  []Tribool   // assigns[var]
	vardata  []varInfo   // vardata[var]
	activity []float64   // VSIDS activity per variable
	polarity []bool      // saved phases: last assigned sign per variable
	seen     []bool      // scratch for conflict analysis

	// watchBlock is the unused tail of the block that watch windows are
	// carved from (see addWatch).
	watchBlock []watcher

	// heap orders the variables whose activity is positive (VSIDS);
	// next is the decision cursor over the rest. Every unassigned
	// variable is in heap, or has activity 0 and index at most next, so
	// a never-bumped variable costs no heap operation: it is decided in
	// descending index order once the heap holds no unassigned variable.
	heap     *varHeap
	next     Var
	trail    []Lit
	trailLim []int // decision-level boundaries in trail
	qhead    int

	varInc    float64
	claInc    float64
	numVars   int
	ok        bool  // false once a top-level conflict is derived
	conflictC []Lit // final conflict clause in assumption terms

	// conflLit is the literal a binary conflict's ref leaves out: the
	// watcher's blocker (see propagate and analyze).
	conflLit Lit
	// binLits is clauseLits' scratch for a binary clause.
	binLits [2]Lit

	// Reusable clause-normalization and conflict-analysis scratch, so
	// AddClause and the analyze/minimize path allocate nothing once the
	// buffers have grown to steady state.
	addBuf     []Lit   // AddClause normalization
	learntBuf  []Lit   // learned clause under construction
	preBuf     []Lit   // pre-minimization copy for the onMinimize hook
	markBuf    []bool  // per-var marks for clause minimization
	levelStamp []int32 // per-level stamps for LBD computation, grown on demand
	lbdStamp   int32

	// Stop, if non-nil, is polled from the solving goroutine at every
	// conflict (and before each restart round). When it returns true
	// the current Solve call gives up promptly and returns Unknown with
	// Interrupted reporting true. The hook must be cheap and must not
	// call back into the Solver; a non-blocking select on a
	// context.Done channel is the intended use.
	Stop func() bool
	// interrupted records that the last Solve call returned Unknown
	// because Stop fired.
	interrupted bool

	model []Tribool // assignment snapshot from the last Sat result

	// OnEvent, if non-nil, observes discrete solver-state transitions
	// from the solving goroutine: restarts, learned-clause database
	// reductions, and arena compactions (see SolverEvent for the
	// per-kind payloads). Unlike the periodic Progress samples these are
	// edge-triggered, which is what a flight recorder wants: the hook
	// fires exactly when the solver changes regime. It must be cheap and
	// must not call back into the Solver. A nil OnEvent costs one
	// predictable branch per restart/reduction and allocates nothing.
	OnEvent func(ev SolverEvent, a, b int64)

	// Progress, if non-nil, receives periodic ProgressSamples from the
	// solving goroutine: every ProgressEvery conflicts, at each restart,
	// and (with Final set) just before Solve returns. Because samples
	// are taken on the solving goroutine, the hook is the race-free way
	// to observe a live solver's Stats; the hook itself must be cheap
	// and must not call back into the Solver. A nil Progress costs one
	// predictable branch per conflict and allocates nothing.
	Progress func(ProgressSample)
	// ProgressEvery is the conflict period between samples (default
	// 1024 when a Progress hook is installed).
	ProgressEvery int64

	// onLearn, if set, observes every learned clause (testing hook).
	onLearn func([]Lit)
	// onMinimize, if set, observes (pre, post) minimization clauses.
	onMinimize func(pre, post []Lit)
	// debugChain, if set, observes each resolution step in analyze.
	debugChain func(clause []Lit, pivot Lit)
	// learntLimit, if positive, replaces the learned-clause limit each
	// Solve call starts from (testing hook: a tiny limit reaches reduceDB
	// and the arena collector on small instances).
	learntLimit float64

	Stats Stats
}

// New returns an empty solver with no variables or clauses.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true}
	// Index 0 is reserved so Var and Lit arithmetic stays simple.
	s.watches = make([][]watcher, 2)
	s.assigns = make([]Tribool, 1)
	s.vardata = make([]varInfo, 1)
	s.vardata[0].reason = CRefUndef
	s.activity = make([]float64, 1)
	s.polarity = make([]bool, 1)
	s.seen = make([]bool, 1)
	s.markBuf = make([]bool, 1)
	s.heap = newVarHeap(&s.activity)
	return s
}

// growCap returns s with capacity for at least n elements, preserving
// length and contents. It grows geometrically (append's policy, via
// slices.Grow), so a long run of small Grow calls costs amortized O(1)
// copies per element instead of one full copy each.
func growCap[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	return slices.Grow(s, n-len(s))
}

// Grow preallocates internal storage for n additional variables, so a
// following burst of NewVar calls (domain indicators, totalizer trees,
// Tseitin gates) extends the per-variable slices in place instead of
// reallocating them one append at a time.
func (s *Solver) Grow(n int) {
	if n <= 0 {
		return
	}
	need := s.numVars + n + 1
	s.watches = growCap(s.watches, 2*need)
	s.assigns = growCap(s.assigns, need)
	s.vardata = growCap(s.vardata, need)
	s.activity = growCap(s.activity, need)
	s.polarity = growCap(s.polarity, need)
	s.seen = growCap(s.seen, need)
	s.markBuf = growCap(s.markBuf, need)
	s.heap.grow(need)
}

// Reserve preallocates storage for a solver that will hold about vars
// variables, words arena words and clauses arena problem clauses — the
// Size of a similar instance encoded before — so encoding fills storage in
// place instead of regrowing it from empty. Capacities grow
// geometrically (growCap), so repeated calls stay amortized. Reserve
// changes no state the search reads.
func (s *Solver) Reserve(vars, words, clauses int) {
	s.Grow(vars - s.numVars)
	s.trail = growCap(s.trail, vars)
	s.arena.data = growCap(s.arena.data, words)
	s.clauses = growCap(s.clauses, clauses)
}

// Size reports the solver's variable count, clause-arena words and
// arena problem clause count: the arguments that Reserve presizes a
// similar instance with. Binary clauses, which take no arena space, are
// not counted; NumClauses counts every problem clause.
func (s *Solver) Size() (vars, words, clauses int) {
	return s.numVars, len(s.arena.data), len(s.clauses)
}

// NewVar allocates and returns a fresh variable.
func (s *Solver) NewVar() Var {
	s.numVars++
	v := Var(s.numVars)
	s.watches = append(s.watches, nil, nil)
	s.assigns = append(s.assigns, Undef)
	s.vardata = append(s.vardata, varInfo{reason: CRefUndef})
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, true) // default phase: false (sign=true)
	s.seen = append(s.seen, false)
	s.markBuf = append(s.markBuf, false)
	s.heap.indices = append(s.heap.indices, -1)
	s.next = v
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.numVars }

// NumClauses returns the number of problem clauses currently held,
// binary ones included.
func (s *Solver) NumClauses() int { return len(s.clauses) + s.binClauses }

// Value returns the current assignment of v (Undef if unassigned).
func (s *Solver) Value(v Var) Tribool { return s.assigns[v] }

// litValue evaluates a literal under the current assignment.
func (s *Solver) litValue(l Lit) Tribool {
	t := s.assigns[l.Var()]
	if l.Sign() {
		return t.Not()
	}
	return t
}

// AddClause adds a clause over the given literals. It returns false if
// the solver is already in an unsatisfiable state (adding is a no-op
// then). Duplicate literals are removed; tautologies are dropped.
//
// AddClause is legal between Solve calls: Solve always backtracks to
// the root level before returning, so an incremental caller can
// interleave clause additions and assumption solves on one long-lived
// solver. Learned clauses, VSIDS activity, and saved phases survive
// such additions — that retained state is the point of keeping the
// instance alive.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("sat: AddClause called at non-root decision level")
	}
	// Normalize: sort, dedup, drop false lits, detect tautology/satisfied.
	// The sorted copy lives in a reusable buffer (the arena copies the
	// surviving literals), so a steady stream of additions allocates
	// nothing here.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	slices.Sort(ls)
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if l == prev {
			continue
		}
		if l == prev.Neg() && prev != -1 {
			return true // tautology: x ∨ ¬x
		}
		switch s.litValue(l) {
		case True:
			return true // already satisfied at root
		case False:
			prev = l
			continue // drop root-false literal
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(out[0], CRefUndef) {
			s.ok = false
			return false
		}
		if s.propagate() != CRefUndef {
			s.ok = false
			return false
		}
		return true
	case 2:
		s.binClauses++
		s.attachBinary(out[0], out[1])
		return true
	}
	c := s.arena.alloc(out, false, 0)
	s.notePeak()
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c CRef) {
	cl := s.arena.lits(c)
	w0, w1 := cl[0], cl[1]
	s.addWatch(w0.Neg(), watcher{c, w1})
	s.addWatch(w1.Neg(), watcher{c, w0})
}

// attachBinary stores the binary clause a ∨ b as its two watchers.
func (s *Solver) attachBinary(a, b Lit) {
	s.addWatch(a.Neg(), watcher{binRef(a), b})
	s.addWatch(b.Neg(), watcher{binRef(b), a})
}

// clauseLits returns the literals of clause c. A binary ref carries
// only one literal; first is the other, which leads the returned pair:
// for a reason, the literal it implied; for a binary conflict, conflLit.
// The pair aliases scratch that the next call overwrites.
func (s *Solver) clauseLits(c CRef, first Lit) []Lit {
	if c.binary() {
		s.binLits = [2]Lit{first, c.lit()}
		return s.binLits[:]
	}
	return s.arena.lits(c)
}

// Watch windows: most literals are watched by a handful of clauses, so
// a literal's first watcher gets a watchWindow-slot window carved from
// a shared block of watchBlockWindows windows instead of an allocation
// of its own. The window's capacity is clipped, so a list that outgrows
// it is reallocated by append alone and never spills into a neighbour.
const (
	watchWindow       = 4
	watchBlockWindows = 64
)

// addWatch appends w to l's watch list, carving the list's first window
// from the current watch block.
func (s *Solver) addWatch(l Lit, w watcher) {
	ws := s.watches[l]
	if cap(ws) == 0 {
		if len(s.watchBlock) < watchWindow {
			s.watchBlock = make([]watcher, watchWindow*watchBlockWindows)
		}
		ws = s.watchBlock[:0:watchWindow]
		s.watchBlock = s.watchBlock[watchWindow:]
	}
	s.watches[l] = append(ws, w)
}

func (s *Solver) notePeak() {
	if b := s.arena.bytes(); b > s.Stats.PeakClauseBytes {
		s.Stats.PeakClauseBytes = b
	}
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) enqueue(l Lit, from CRef) bool {
	switch s.litValue(l) {
	case True:
		return true
	case False:
		return false
	}
	v := l.Var()
	if l.Sign() {
		s.assigns[v] = False
	} else {
		s.assigns[v] = True
	}
	s.polarity[v] = l.Sign()
	s.vardata[v] = varInfo{reason: from, level: int32(s.decisionLevel())}
	s.trail = append(s.trail, l)
	return true
}

// propagate runs unit propagation; it returns the conflicting clause
// ref or CRefUndef (for a binary conflict, conflLit holds the literal
// the ref leaves out). This is the solver's hot loop: watchers carry
// the clause ref plus a blocker literal, so satisfied clauses are
// skipped without touching the arena at all, a binary clause is handled
// from its watcher alone, and the literals of a longer clause are read
// through one slab index instead of a pointer chase.
func (s *Solver) propagate() CRef {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; clauses watching ¬p must react
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		kept := ws[:0]
		confl := CRefUndef
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.litValue(w.blocker) == True {
				kept = append(kept, w)
				continue
			}
			c := w.cref
			if c.binary() {
				// The blocker is the clause's only other literal.
				kept = append(kept, w)
				if !s.enqueue(w.blocker, c) {
					s.conflLit = w.blocker
					confl = c
					s.qhead = len(s.trail)
					kept = append(kept, ws[i+1:]...)
					break
				}
				continue
			}
			cl := s.arena.lits(c)
			// Ensure cl[0] is the other watched literal.
			falseLit := p.Neg()
			if cl[0] == falseLit {
				cl[0], cl[1] = cl[1], cl[0]
			}
			first := cl[0]
			if first != w.blocker && s.litValue(first) == True {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(cl); k++ {
				if s.litValue(cl[k]) != False {
					cl[1], cl[k] = cl[k], cl[1]
					s.addWatch(cl[1].Neg(), watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if s.litValue(first) == False || !s.enqueue(first, c) {
				confl = c
				s.qhead = len(s.trail)
				kept = append(kept, ws[i+1:]...)
				break
			}
		}
		s.watches[p] = kept
		if confl != CRefUndef {
			return confl
		}
	}
	return CRefUndef
}

// computeLBD returns the literal block distance of a clause: the number
// of distinct decision levels among its literals (Glucose). Low LBD
// ("glue") clauses connect few decision blocks and are the learned
// clauses worth keeping forever.
func (s *Solver) computeLBD(lits []Lit) int {
	// Decision levels can exceed numVars when duplicate assumptions
	// open empty levels; size the stamp array to the live level count.
	if n := s.decisionLevel() + 1; n > len(s.levelStamp) {
		s.levelStamp = append(s.levelStamp, make([]int32, n-len(s.levelStamp))...)
	}
	s.lbdStamp++
	stamp := s.lbdStamp
	n := 0
	for _, l := range lits {
		lv := s.vardata[l.Var()].level
		if s.levelStamp[lv] != stamp {
			s.levelStamp[lv] = stamp
			n++
		}
	}
	return n
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first), the backtrack level, and the
// clause's LBD. The returned slice aliases an internal buffer that is
// reused by the next analysis; callers must copy (arena.alloc does)
// before the next conflict.
func (s *Solver) analyze(confl CRef) ([]Lit, int, int) {
	learnt := append(s.learntBuf[:0], 0) // placeholder for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for first := s.conflLit; ; first = p {
		cl := s.clauseLits(confl, first)
		if s.debugChain != nil {
			s.debugChain(cl, p)
		}
		s.bumpClause(confl)
		for _, q := range cl {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.vardata[v].level == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.vardata[v].level) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Walk back the trail to the next marked literal.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.vardata[v].reason
	}
	learnt[0] = p.Neg()

	// Clause minimization: drop literals implied by the rest.
	for _, l := range learnt[1:] {
		s.markBuf[l.Var()] = true
	}
	// Note: seen flags must be cleared for every pre-minimization
	// literal, not just the survivors, or stale flags poison the next
	// conflict analysis.
	pre := append(s.preBuf[:0], learnt...)
	s.preBuf = pre
	mini := learnt[:1]
	for _, l := range learnt[1:] {
		if !s.redundant(l) {
			mini = append(mini, l)
		}
	}
	learnt = mini
	if s.onMinimize != nil {
		s.onMinimize(pre, learnt)
	}

	// Compute backtrack level = second-highest level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.vardata[learnt[i].Var()].level > s.vardata[learnt[maxI].Var()].level {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.vardata[learnt[1].Var()].level)
	}
	for _, l := range pre {
		s.seen[l.Var()] = false
		s.markBuf[l.Var()] = false
	}
	lbd := s.computeLBD(learnt)
	s.learntBuf = learnt
	return learnt, btLevel, lbd
}

// redundant reports whether literal l in a learned clause is implied by
// the remaining marked literals (local, non-recursive minimization: l is
// redundant if its reason exists and all reason literals are marked or
// at level 0).
func (s *Solver) redundant(l Lit) bool {
	r := s.vardata[l.Var()].reason
	if r == CRefUndef {
		return false
	}
	for _, q := range s.clauseLits(r, l.Neg()) {
		if q.Var() == l.Var() {
			continue
		}
		if s.vardata[q.Var()].level == 0 {
			continue
		}
		if !s.markBuf[q.Var()] {
			return false
		}
	}
	return true
}

func (s *Solver) backtrack(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.assigns[v] = Undef
		s.vardata[v].reason = CRefUndef
		if s.activity[v] > 0 {
			s.heap.insert(v)
		} else if v > s.next {
			s.next = v
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heap.inHeap(v) {
		s.heap.decrease(v)
	} else if s.assigns[v] == Undef {
		s.heap.insert(v)
	}
}

func (s *Solver) bumpClause(c CRef) {
	if c.binary() || !s.arena.learnt(c) {
		return
	}
	act := float64(s.arena.activity(c)) + s.claInc
	s.arena.setActivity(c, float32(act))
	if act > 1e20 {
		for _, lc := range s.learnts {
			s.arena.setActivity(lc, s.arena.activity(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

// Activity decay rates: VSIDS variable activity decays by 0.95 per
// conflict, learned-clause activity by 0.999.
const (
	varDecay = 1.0 / 0.95
	claDecay = 1.0 / 0.999
)

// pickBranchVar selects an unassigned variable by VSIDS activity: the
// heap's best, or once the heap holds no unassigned variable, the
// highest-indexed never-bumped one at or below the cursor.
func (s *Solver) pickBranchVar() Var {
	for !s.heap.empty() {
		v := s.heap.pop()
		if s.assigns[v] == Undef {
			return v
		}
	}
	for ; s.next > 0; s.next-- {
		if s.assigns[s.next] == Undef {
			return s.next
		}
	}
	return 0
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// scaled by base; Solve restarts on luby(100, n) conflicts.
func luby(base int64, i int64) int64 {
	// Find the finite subsequence containing index i, then its value.
	var k uint = 1
	for (int64(1)<<k)-1 < i {
		k++
	}
	for (int64(1)<<k)-1 != i {
		i -= (int64(1) << (k - 1)) - 1
		k = 1
		for (int64(1)<<k)-1 < i {
			k++
		}
	}
	return base << (k - 1)
}

// reduceDB removes roughly half of the learned clauses. Binary,
// locked (reason), and glue (LBD ≤ 2) clauses always survive; the
// rest are ranked by (LBD, activity) so high-glue, low-activity
// clauses go first. When enough slab space is freed, the arena is
// compacted in place (garbageCollect).
//
// Binary learned clauses are not in learnts, but they count toward the
// half: they would rank first (their LBD is at most 2), so the cut in
// learnts falls binLearnts places earlier.
func (s *Solver) reduceDB() {
	a := &s.arena
	sort.Slice(s.learnts, func(i, j int) bool {
		ci, cj := s.learnts[i], s.learnts[j]
		li, lj := a.lbd(ci), a.lbd(cj)
		if li != lj {
			return li < lj
		}
		return a.activity(ci) > a.activity(cj)
	})
	keep := s.learnts[:0]
	before := len(s.learnts) + s.binLearnts
	limit := before/2 - s.binLearnts
	for i, c := range s.learnts {
		if a.lbd(c) <= glueLBD || s.locked(c) || i < limit {
			keep = append(keep, c)
		} else {
			s.detach(c)
			a.free(c)
			s.Stats.Deleted++
		}
	}
	s.emitEvent(EventReduceDB, int64(before), int64(len(s.learnts)-len(keep)))
	s.learnts = keep
	if a.wasted*5 > len(a.data) {
		s.garbageCollect()
	}
}

// glueLBD is the protection threshold: learned clauses whose literal
// block distance is at most this are never deleted (Glucose's "glue").
const glueLBD = 2

// garbageCollect compacts the clause arena: every live clause is moved
// into a fresh slab and all aliases — watcher refs, assignment reasons,
// and the problem/learnt clause lists — are remapped through forwarding
// records. Binary refs name no slot and stay as they are. Runs at root
// or mid-search; locked clauses keep their role.
func (s *Solver) garbageCollect() {
	from := &s.arena
	bytesBefore := from.bytes()
	to := arena{data: make([]Lit, 0, len(from.data)-from.wasted)}
	for li := range s.watches {
		ws := s.watches[li]
		for i := range ws {
			if c := ws[i].cref; !c.binary() {
				ws[i].cref = from.reloc(c, &to)
			}
		}
	}
	for _, l := range s.trail {
		v := l.Var()
		if r := s.vardata[v].reason; r != CRefUndef && !r.binary() {
			s.vardata[v].reason = from.reloc(r, &to)
		}
	}
	for i, c := range s.clauses {
		s.clauses[i] = from.reloc(c, &to)
	}
	for i, c := range s.learnts {
		s.learnts[i] = from.reloc(c, &to)
	}
	s.arena = to
	s.Stats.ArenaGCs++
	s.emitEvent(EventArenaGC, bytesBefore, s.arena.bytes())
}

// Compact trims the solver's storage to what it holds, for a solver
// kept alive between searches: geometric growth leaves every watch
// list, the clause arena, the clause lists and the per-variable slices
// with spare capacity. All watch lists are copied into one exact-size
// backing array, each clipped to its own window (an append to one
// reallocates that list alone), the rest of the current watch block is
// dropped, and the other slices are cloned to their length. Watcher order and clause refs are preserved, so the
// search after Compact is identical to the one before it. Compact
// copies the whole clause database; call it once per long-lived
// solver, not after every search. It must be called between Solve
// calls.
func (s *Solver) Compact() {
	total := 0
	for _, ws := range s.watches {
		total += len(ws)
	}
	flat := make([]watcher, total)
	s.watchBlock = nil // its free windows would pin the old block
	s.watches = exact(s.watches)
	for li, ws := range s.watches {
		n := copy(flat, ws)
		s.watches[li] = flat[:n:n]
		flat = flat[n:]
	}
	s.arena.data = exact(s.arena.data)
	s.clauses = exact(s.clauses)
	s.learnts = exact(s.learnts)
	s.assigns = exact(s.assigns)
	s.vardata = exact(s.vardata)
	s.activity = exact(s.activity)
	s.polarity = exact(s.polarity)
	s.seen = exact(s.seen)
	s.markBuf = exact(s.markBuf)
	s.heap.compact()
}

// exact returns a copy of s whose capacity equals its length.
func exact[T any](s []T) []T {
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// locked reports whether arena clause c is the reason of an assigned
// variable.
func (s *Solver) locked(c CRef) bool {
	l := s.arena.lits(c)[0]
	return s.litValue(l) == True && s.vardata[l.Var()].reason == c
}

// detach removes arena clause c's two watchers.
func (s *Solver) detach(c CRef) {
	cl := s.arena.lits(c)
	for _, w := range []Lit{cl[0].Neg(), cl[1].Neg()} {
		ws := s.watches[w]
		for i, x := range ws {
			if x.cref == c {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// emitEvent delivers one edge-triggered event to the OnEvent hook.
func (s *Solver) emitEvent(ev SolverEvent, a, b int64) {
	if s.OnEvent != nil {
		s.OnEvent(ev, a, b)
	}
}

// emitProgress delivers one sample to the Progress hook. It runs on
// the solving goroutine, so the Stats copy it hands out is consistent.
func (s *Solver) emitProgress(final bool) {
	if s.Progress == nil {
		return
	}
	s.Progress(ProgressSample{
		Stats:         s.Stats,
		TrailDepth:    len(s.trail),
		LearntClauses: len(s.learnts) + s.binLearnts,
		DecisionLevel: s.decisionLevel(),
		Final:         final,
	})
}

// progressPeriod returns the conflict sampling period for the hook.
func (s *Solver) progressPeriod() int64 {
	if s.ProgressEvery > 0 {
		return s.ProgressEvery
	}
	return 1024
}

// Solve searches for a model under the given assumption literals. On
// Unsat, Conflict() returns the subset of assumptions responsible.
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.Stats.SolveCalls++
	s.conflictC = nil
	s.interrupted = false
	if !s.ok {
		s.emitProgress(true)
		return Unsat
	}
	defer s.backtrack(0)
	defer s.emitProgress(true)

	if s.stopRequested() {
		return Unknown
	}

	maxLearnts := float64(s.NumClauses())/3 + 500
	if s.learntLimit > 0 {
		maxLearnts = s.learntLimit
	}
	var restartN int64 = 1

	for {
		budget := luby(100, restartN)
		restartN++
		st := s.search(assumptions, budget, &maxLearnts)
		if st == Sat {
			s.model = make([]Tribool, len(s.assigns))
			copy(s.model, s.assigns)
		}
		if st != Unknown {
			return st
		}
		if s.interrupted {
			return Unknown
		}
		s.Stats.Restarts++
		s.emitEvent(EventRestart, s.Stats.Restarts, s.Stats.Conflicts)
		s.emitProgress(false)
		s.backtrack(0)
	}
}

// search runs CDCL until a result, a restart budget expiry (Unknown),
// or completion.
func (s *Solver) search(assumptions []Lit, budget int64, maxLearnts *float64) Status {
	var conflicts int64
	for {
		confl := s.propagate()
		if confl != CRefUndef {
			s.Stats.Conflicts++
			conflicts++
			if s.Progress != nil && s.Stats.Conflicts%s.progressPeriod() == 0 {
				s.emitProgress(false)
			}
			if s.stopRequested() {
				return Unknown
			}
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel, lbd := s.analyze(confl)
			if s.onLearn != nil {
				s.onLearn(learnt)
			}
			// Never backtrack past the assumptions.
			s.backtrack(btLevel)
			switch len(learnt) {
			case 1:
				if !s.enqueue(learnt[0], CRefUndef) {
					s.ok = false
					return Unsat
				}
			case 2:
				s.binLearnts++
				s.attachBinary(learnt[0], learnt[1])
				s.enqueue(learnt[0], binRef(learnt[1]))
			default:
				c := s.arena.alloc(learnt, true, lbd)
				s.notePeak()
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.bumpClause(c)
				s.enqueue(learnt[0], c)
			}
			s.Stats.Learned++
			s.Stats.LBDSum += int64(lbd)
			if lbd <= glueLBD {
				s.Stats.GlueLearned++
			}
			s.varInc *= varDecay
			s.claInc *= claDecay
			if float64(len(s.learnts)+s.binLearnts) > *maxLearnts {
				*maxLearnts *= 1.3
				s.reduceDB()
			}
			continue
		}
		if conflicts >= budget {
			return Unknown
		}
		// Assumption decisions first.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.litValue(a) {
			case True:
				// Already implied: open an empty decision level so the
				// level↔assumption indexing stays aligned.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case False:
				s.conflictC = s.analyzeFinal(a, assumptions)
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(a, CRefUndef)
			continue
		}
		v := s.pickBranchVar()
		if v == 0 {
			return Sat
		}
		s.Stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(NewLit(v, s.polarity[v]), CRefUndef)
	}
}

// analyzeFinal computes the subset of assumptions that imply ¬a, i.e. a
// final conflict clause over assumption literals.
func (s *Solver) analyzeFinal(a Lit, assumptions []Lit) []Lit {
	out := []Lit{a.Neg()}
	if s.decisionLevel() == 0 {
		return out
	}
	isAssumption := make(map[Lit]bool, len(assumptions))
	for _, l := range assumptions {
		isAssumption[l] = true
	}
	seen := make(map[Var]bool)
	seen[a.Var()] = true
	for i := len(s.trail) - 1; i >= 0; i-- {
		v := s.trail[i].Var()
		if !seen[v] {
			continue
		}
		r := s.vardata[v].reason
		if r == CRefUndef {
			// An assumption on a's own variable is the directly
			// contradictory earlier assumption (¬a assumed before a):
			// it belongs in the core alongside a itself.
			if isAssumption[s.trail[i]] {
				out = append(out, s.trail[i].Neg())
			}
		} else {
			for _, q := range s.clauseLits(r, s.trail[i]) {
				if s.vardata[q.Var()].level > 0 {
					seen[q.Var()] = true
				}
			}
		}
		delete(seen, v)
	}
	return out
}

// stopRequested polls the Stop hook and latches the interrupted flag.
func (s *Solver) stopRequested() bool {
	if s.Stop != nil && s.Stop() {
		s.interrupted = true
	}
	return s.interrupted
}

// Interrupted reports whether the last Solve call returned Unknown
// because the Stop hook fired.
func (s *Solver) Interrupted() bool { return s.interrupted }

// Conflict returns the final conflict clause from the last Unsat Solve
// under assumptions: the negations of a responsible assumption subset.
func (s *Solver) Conflict() []Lit { return s.conflictC }

// FinalCore returns the subset of the last Solve call's assumptions
// responsible for its Unsat answer (the final conflict analysis of
// analyzeFinal, in assumption terms): re-solving under exactly these
// assumptions is again Unsat. It is the un-negated view of Conflict().
// The core is empty when the solver is unsatisfiable without any
// assumption's involvement (a root-level conflict).
func (s *Solver) FinalCore() []Lit {
	if len(s.conflictC) == 0 {
		return nil
	}
	out := make([]Lit, len(s.conflictC))
	for i, l := range s.conflictC {
		out[i] = l.Neg()
	}
	return out
}

// Model returns the satisfying assignment captured by the last Sat
// result. The returned slice is indexed by Var (index 0 unused).
// Variables created after that Solve call report Undef.
func (s *Solver) Model() []Tribool {
	m := make([]Tribool, len(s.assigns))
	copy(m, s.model)
	return m
}

// ModelValue returns the value of v in the last model (false if the
// variable was unassigned or the last Solve was not Sat).
func (s *Solver) ModelValue(v Var) bool {
	return int(v) < len(s.model) && s.model[v] == True
}

// SetPhases makes model's value the saved phase of every variable it
// assigns, so the next search decides toward that assignment first. A
// caller that ends on an UNSAT call (an optimality proof) uses it to
// start the next search from its best model rather than from whatever
// the failed call assigned last.
func (s *Solver) SetPhases(model []Tribool) {
	for v, val := range model {
		if val != Undef {
			s.polarity[v] = val == False
		}
	}
}

// Okay reports whether the solver is still consistent at the root
// level (no empty clause derived).
func (s *Solver) Okay() bool { return s.ok }
