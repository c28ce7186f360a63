// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver used as the decision engine beneath AED's MaxSMT layer. It
// provides two-watched-literal propagation, first-UIP conflict analysis
// with clause minimization, VSIDS branching, phase saving, Luby
// restarts, learned-clause database reduction, incremental solving
// under assumptions, and final-conflict (core) extraction.
//
// Clauses of three or more literals live in one flat arena; a binary
// clause, problem or learned, is stored only as its two watchers, whose
// blockers are each other's literal, so propagating, deleting and
// compacting never touch it in the arena (see binTag). About half the
// clauses AED's encodings emit are binary.
//
// The solver is deliberately self-contained (stdlib only): the paper's
// artifact delegated to Z3, which has no maintained Go bindings, so this
// package is the substitution that makes the whole system reproducible
// in pure Go (see DESIGN.md §2).
package sat

import "fmt"

// Var identifies a boolean variable. Valid variables are >= 1;
// variable 0 is reserved.
type Var int

// Lit is a literal: a variable or its negation. Internally a literal
// is 2*v for the positive polarity and 2*v+1 for the negative, which
// makes negation a single XOR and array indexing direct.
type Lit int32

// NewLit builds a literal from a variable and a sign. sign=false gives
// the positive literal v, sign=true gives ¬v.
func NewLit(v Var, sign bool) Lit {
	l := Lit(v) << 1
	if sign {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return NewLit(v, false) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return NewLit(v, true) }

// Var returns the variable underlying l.
func (l Lit) Var() Var { return Var(l >> 1) }

// Sign reports whether l is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// Neg returns the negation of l.
func (l Lit) Neg() Lit { return l ^ 1 }

// String renders l as "v3" or "~v3".
func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("~v%d", l.Var())
	}
	return fmt.Sprintf("v%d", l.Var())
}

// Tribool is a three-valued truth assignment.
type Tribool int8

// Truth values of a Tribool.
const (
	Undef Tribool = iota
	True
	False
)

// Not negates a defined Tribool and leaves Undef unchanged.
func (t Tribool) Not() Tribool {
	switch t {
	case True:
		return False
	case False:
		return True
	}
	return Undef
}

func (t Tribool) String() string {
	switch t {
	case True:
		return "true"
	case False:
		return "false"
	}
	return "undef"
}

// Status is the outcome of a Solve call.
type Status int

// Solver outcomes.
const (
	// Unknown means the solver was interrupted by budget limits.
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula (under the given assumptions) is
	// unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Stats counts solver work; useful in benchmarks and for the paper's
// optimization-strategy experiments.
//
// The fields are plain integers incremented by the solving goroutine
// with no synchronization, keeping the search loop free of atomic
// traffic. Other goroutines must therefore never read a live Solver's
// Stats directly: concurrent snapshots are taken through the Progress
// hook, which delivers consistent copies from inside the solving
// goroutine (see Solver.Progress). Once Solve has returned, reading
// Stats from the coordinating goroutine is safe as usual.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learned      int64
	Deleted      int64
	SolveCalls   int64

	// GlueLearned counts learned clauses whose literal block distance
	// was at most the glue threshold (LBD ≤ 2) at learning time; these
	// are protected from deletion (see reduceDB).
	GlueLearned int64
	// LBDSum is the sum of LBDs over all learned clauses, so the mean
	// learned-clause quality is LBDSum/Learned.
	LBDSum int64
	// ArenaGCs counts compactions of the clause arena.
	ArenaGCs int64
	// PeakClauseBytes is the high-water mark of the clause arena in
	// bytes. Under Add it sums (aggregate peak memory across per-
	// destination solvers); under Sub it becomes an increment like any
	// other counter.
	PeakClauseBytes int64
}

// Add returns the field-wise sum s+o, for aggregating per-instance
// solver stats into network-wide totals.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Decisions:       s.Decisions + o.Decisions,
		Propagations:    s.Propagations + o.Propagations,
		Conflicts:       s.Conflicts + o.Conflicts,
		Restarts:        s.Restarts + o.Restarts,
		Learned:         s.Learned + o.Learned,
		Deleted:         s.Deleted + o.Deleted,
		SolveCalls:      s.SolveCalls + o.SolveCalls,
		GlueLearned:     s.GlueLearned + o.GlueLearned,
		LBDSum:          s.LBDSum + o.LBDSum,
		ArenaGCs:        s.ArenaGCs + o.ArenaGCs,
		PeakClauseBytes: s.PeakClauseBytes + o.PeakClauseBytes,
	}
}

// Sub returns the field-wise difference s-o, for converting cumulative
// progress samples into increments.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Decisions:       s.Decisions - o.Decisions,
		Propagations:    s.Propagations - o.Propagations,
		Conflicts:       s.Conflicts - o.Conflicts,
		Restarts:        s.Restarts - o.Restarts,
		Learned:         s.Learned - o.Learned,
		Deleted:         s.Deleted - o.Deleted,
		SolveCalls:      s.SolveCalls - o.SolveCalls,
		GlueLearned:     s.GlueLearned - o.GlueLearned,
		LBDSum:          s.LBDSum - o.LBDSum,
		ArenaGCs:        s.ArenaGCs - o.ArenaGCs,
		PeakClauseBytes: s.PeakClauseBytes - o.PeakClauseBytes,
	}
}

// SolverEvent classifies one edge-triggered solver-state transition
// delivered through the OnEvent hook (the flight-recorder feed; the
// periodic counterpart is the Progress hook).
type SolverEvent uint8

// Solver event kinds and their (a, b) payloads.
const (
	// EventRestart: a = cumulative restarts, b = cumulative conflicts.
	EventRestart SolverEvent = iota
	// EventReduceDB: a = learned clauses before the pass, b = deleted.
	EventReduceDB
	// EventArenaGC: a = arena bytes before compaction, b = bytes after.
	EventArenaGC
)

// ProgressSample is a consistent snapshot of a running solver, emitted
// through the Progress hook from inside the solving goroutine.
type ProgressSample struct {
	// Stats is a copy of the cumulative counters at sample time.
	Stats Stats
	// TrailDepth is the current number of assigned literals.
	TrailDepth int
	// LearntClauses is the current learned-clause database size.
	LearntClauses int
	// DecisionLevel is the current search depth in decisions.
	DecisionLevel int
	// Final marks the sample emitted just before Solve returns.
	Final bool
}
