package encode

import (
	"context"
	"time"

	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/sat"
	"github.com/aed-net/aed/internal/smt"
)

// Result is the outcome of solving one per-destination instance.
type Result struct {
	// Sat reports whether the hard constraints (policies + sketch +
	// routing model) were satisfiable. When false the requested
	// policies are unimplementable on this network (paper §11 "SMT
	// output for special cases") — unless Err is set, in which case
	// the search was interrupted and Sat carries no information.
	Sat bool
	// Err is non-nil when the solve was interrupted by a canceled
	// context before completing (context.Canceled or
	// context.DeadlineExceeded).
	Err error
	// Edits are the extracted configuration changes.
	Edits []Edit
	// SatisfiedWeight/ViolatedWeight summarize soft-constraint
	// (management objective) satisfaction.
	SatisfiedWeight int
	ViolatedWeight  int
	ViolatedLabels  []string
	// Iterations counts MaxSAT search steps; Duration the solve time.
	Iterations int
	Duration   time.Duration
	// Problem size, for the scalability experiments. NumClauses is the
	// post-Tseitin CNF clause count the solver actually holds (the
	// quantity sharing at the gate builders shrinks; see
	// docs/PERFORMANCE.md §3).
	NumVars    int
	NumClauses int
	NumDeltas  int
	// Stats are the instance's cumulative SAT-solver counters
	// (decisions, conflicts, restarts, ...), aggregated network-wide by
	// core.Synthesize.
	Stats sat.Stats
}

// Solve maximizes objective satisfaction subject to the hard
// constraints and extracts edits from the optimum.
func (e *Encoder) Solve(strategy smt.Strategy) *Result {
	return e.SolveContext(context.Background(), strategy)
}

// SolveContext is Solve with cancellation: once ctx is canceled the
// underlying CDCL search stops at the next conflict and the result
// carries ctx's error in Result.Err.
func (e *Encoder) SolveContext(ctx context.Context, strategy smt.Strategy) *Result {
	return solveInstrumented(ctx, e.Ctx, e.span, e.reg.all(), strategy)
}

// solveInstrumented runs the MaxSAT search and edit extraction under
// "solve"/"maxsat"/"extract" telemetry spans (no-ops when parent is
// nil). Shared by the split (Encoder) and monolithic (Joint) paths.
func solveInstrumented(ctx context.Context, sctx *smt.Context, parent *obs.Span, deltas []*Delta, strategy smt.Strategy) *Result {
	start := time.Now()
	sctx.SetInterrupt(ctx)
	sp := parent.Child("solve")
	ms := sp.Child("maxsat")
	res := sctx.Maximize(strategy)
	ms.SetStr("strategy", res.Search.String())
	ms.SetInt("iterations", int64(res.Iterations))
	ms.SetInt("violated_weight", int64(res.ViolatedWeight))
	ms.End()

	out := &Result{
		Iterations: res.Iterations,
		NumVars:    sctx.NumSATVars(),
		NumClauses: sctx.NumSATClauses(),
		NumDeltas:  len(deltas),
	}
	if res.Model == nil {
		out.Err = res.Err
		out.Duration = time.Since(start)
		out.Stats = sctx.Stats()
		sp.SetBool("sat", false)
		sp.End()
		return out
	}
	out.Sat = true
	out.SatisfiedWeight = res.SatisfiedWeight
	out.ViolatedWeight = res.ViolatedWeight
	out.ViolatedLabels = res.Violated

	ex := sp.Child("extract")
	out.Edits = Extract(res.Model, deltas)
	ex.SetInt("edits", int64(len(out.Edits)))
	ex.End()

	out.Duration = time.Since(start)
	out.Stats = sctx.Stats()
	sp.SetBool("sat", true)
	sp.SetInt("decisions", out.Stats.Decisions)
	sp.SetInt("conflicts", out.Stats.Conflicts)
	sp.End()
	return out
}
