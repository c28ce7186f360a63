// Package core is the AED engine: it orchestrates the full synthesis
// pipeline of the paper — group policies by destination (§8), build a
// symbolic sketch and policy constraints per group (§5–6), translate
// management objectives to soft constraints (§7), solve the MaxSMT
// instances (in parallel by default), merge the extracted edits, and
// validate the updated configurations with the concrete simulator.
package core

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/encode"
	"github.com/aed-net/aed/internal/objective"
	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/sat"
	"github.com/aed-net/aed/internal/simulate"
	"github.com/aed-net/aed/internal/smt"
	"github.com/aed-net/aed/internal/topology"
)

// Options configure a synthesis run. The zero value is the paper's
// fully optimized configuration (per-destination parallel solving,
// pruning, boolean rank metrics, linear-descent MaxSAT, simulator
// validation): every field is phrased so that false/zero selects the
// paper default, and DefaultOptions is a documented alias for
// Options{}.
type Options struct {
	// Objectives are the management objectives to maximize.
	Objectives []objective.Objective
	// MinimizeLines adds a unit-weight penalty per delta variable —
	// the exact min-lines objective (each changed line costs one).
	MinimizeLines bool
	// Sequential solves per-destination instances one at a time
	// instead of concurrently. The default (false) is the paper's
	// parallel per-destination solving (§8).
	Sequential bool
	// Monolithic disables per-destination splitting entirely and
	// solves one joint MaxSMT problem (the Fig. 14 baseline).
	Monolithic bool
	// Workers bounds solver goroutines (0 = GOMAXPROCS).
	Workers int
	// Strategy selects the MaxSAT search algorithm. The zero value,
	// smt.Auto, runs core-guided search on every freshly encoded
	// instance (cold and tier-3 solves) and linear descent on tier-2
	// re-solves of a live instance, where the memoized totalizer and
	// saved phases make it the faster search; on cold_fleet it roughly
	// doubles throughput over linear descent everywhere (see
	// docs/PERFORMANCE.md §MaxSAT search). The paper's Z3 optimizer
	// defaults to MaxRes, also core-guided. The named strategies force
	// one search on every path.
	Strategy smt.Strategy
	// Encode tunes the underlying encoding (pruning, integer widths);
	// its zero value is the paper default too.
	Encode encode.Options
	// SkipValidation skips the simulator re-check of the result. The
	// default (false) validates and reports residual violations in
	// Result.Violations.
	SkipValidation bool
	// Explain computes, for each unsatisfiable destination, a minimal
	// conflicting policy subset (Result.Conflicts). Costs extra solver
	// calls; off by default.
	Explain bool
	// Tracer receives phase spans and solver metrics for the run. Nil
	// (the default) falls back to the process-wide tracer installed
	// with SetTracer, and disables telemetry at zero overhead when
	// that too is unset.
	Tracer *obs.Tracer
	// SlowSolveAfter arms the slow-solve watchdog: an instance solve
	// still running after this long produces an incident — a JSONL
	// record to IncidentWriter and a human-readable dump to stderr —
	// without aborting the solve, and the instance is flagged
	// InstanceStats.Slow once it completes. Zero (the default) disables
	// the watchdog. The aed CLI defaults this to half of -timeout when
	// only a timeout is given.
	SlowSolveAfter time.Duration
	// IncidentWriter, when non-nil, receives one JSON line per watchdog
	// incident (see obs.Incident for the schema).
	IncidentWriter io.Writer
	// NoLiveInstances stops a session Engine from retaining each
	// destination's live solver instance between Solve calls. The
	// default (false) keeps instances alive so that an edit-only
	// configuration change re-solves by flipping retractable bindings
	// on the warm solver (tier-2 in DESIGN.md) instead of re-encoding;
	// set it to trade that speed for the memory of the cached SMT
	// contexts. One-shot SynthesizeContext runs ignore it.
	NoLiveInstances bool
}

// defaultTracer is the process-wide fallback used when Options.Tracer
// is nil, so CLIs like aedbench can observe every Synthesize call —
// including ones made deep inside benchmark drivers — without
// threading a tracer through each call site.
var defaultTracer atomic.Pointer[obs.Tracer]

// SetTracer installs (or, with nil, removes) the process-wide fallback
// tracer.
func SetTracer(t *obs.Tracer) { defaultTracer.Store(t) }

// tracer resolves the effective tracer for a run.
func (o Options) tracer() *obs.Tracer {
	if o.Tracer != nil {
		return o.Tracer
	}
	return defaultTracer.Load()
}

// watchdog builds the slow-solve watchdog for one Solve/Synthesize
// call (nil — a valid no-op — when SlowSolveAfter is unset). One
// watchdog is shared by all parallel instance solves of the call so
// incident output is serialized.
func (o Options) watchdog(tr *obs.Tracer) *obs.Watchdog {
	w := obs.NewWatchdog(o.SlowSolveAfter, tr)
	if w != nil {
		w.Incidents = o.IncidentWriter
		w.Dump = os.Stderr
	}
	return w
}

// markSlow flags instances whose solve outlived the watchdog
// threshold, which is what `aed -stats` renders as the slow column.
func (o Options) markSlow(d time.Duration) bool {
	return o.SlowSolveAfter > 0 && d >= o.SlowSolveAfter
}

// DefaultOptions returns the paper's fully optimized configuration.
// Since the Options redesign this is a documented alias for the zero
// value: DefaultOptions() == Options{}.
func DefaultOptions() Options { return Options{} }

// UnsatError reports that one or more per-destination instances were
// unsatisfiable: the requested policies conflict or are
// unimplementable on the network. It is exposed through
// (*Result).Unsat.
type UnsatError struct {
	// Destinations lists the unsatisfiable destination prefixes in
	// sorted order.
	Destinations []prefix.Prefix
	// Conflicts holds, per unsatisfiable destination, a minimal
	// mutually-unimplementable policy subset. Populated only when
	// Options.Explain is set.
	Conflicts map[prefix.Prefix][]policy.Policy
}

func (e *UnsatError) Error() string {
	var b strings.Builder
	b.WriteString("synthesis unsatisfiable for destinations:")
	for _, d := range e.Destinations {
		b.WriteByte(' ')
		b.WriteString(d.String())
	}
	return b.String()
}

// Result is the outcome of a synthesis run.
type Result struct {
	// Updated is the synthesized network (nil when Unsat() is non-nil).
	Updated *config.Network
	// Edits are the merged configuration changes.
	Edits []encode.Edit
	// Diff summarizes the change w.r.t. the input snapshot.
	Diff *config.DiffStats
	// ObjectiveViolations counts violated soft-constraint weight
	// across instances.
	ObjectiveViolations int
	// Violations lists policies the updated network still violates
	// (empty in normal operation; populated only if the symbolic
	// model and the simulator disagree).
	Violations []simulate.Violation
	// Duration is the end-to-end synthesis time; SolveTime the summed
	// per-instance solver time (= critical path when parallel).
	Duration  time.Duration
	SolveTime time.Duration
	// Instances describes each per-destination problem.
	Instances []InstanceStats
	// Solver is the network-wide total of the per-instance SAT-solver
	// counters: the field-wise sum over Instances[i].Solver. Session
	// solves sum only freshly solved instances (cached ones cost no
	// solver work in the current call).
	Solver sat.Stats

	// unsat is the structured unsatisfiability report; nil when every
	// instance was satisfiable.
	unsat *UnsatError
}

// Unsat returns the structured unsatisfiability report, or nil when
// every instance was satisfiable.
func (r *Result) Unsat() *UnsatError { return r.unsat }

// setUnsat records one unsatisfiable destination with its optional
// minimal conflict.
func (r *Result) setUnsat(d prefix.Prefix, conflict []policy.Policy) {
	if r.unsat == nil {
		r.unsat = &UnsatError{}
	}
	r.unsat.Destinations = append(r.unsat.Destinations, d)
	if len(conflict) > 0 {
		if r.unsat.Conflicts == nil {
			r.unsat.Conflicts = make(map[prefix.Prefix][]policy.Policy)
		}
		r.unsat.Conflicts[d] = conflict
	}
}

// InstanceStats reports one per-destination instance.
type InstanceStats struct {
	Destination prefix.Prefix
	Policies    int
	NumVars     int
	// NumClauses is the instance's post-Tseitin CNF clause count.
	NumClauses int
	NumDeltas  int
	Iterations int
	Duration   time.Duration
	Sat        bool
	// Cached marks an instance whose result was reused from a session
	// cache instead of being re-solved in this call; its Solver
	// counters describe the original solve.
	Cached bool
	// Rebound marks an instance re-solved on its live solver under an
	// unchanged policy set after an edit-only configuration change: the
	// session flipped retractable bindings and re-ran the search
	// instead of re-encoding, so its Solver counters cover only the
	// incremental work of this call.
	Rebound bool
	// Retargeted marks an instance re-solved on its live solver after
	// its policy set changed: the session retracted or reasserted
	// policies the live instance had encoded (and flipped any bindings
	// the configuration edit needed) instead of re-encoding.
	// Its Solver counters, too, cover only this call's search. At most
	// one of Cached, Rebound and Retargeted is set.
	Retargeted bool
	// Slow marks an instance whose solve outlived Options.SlowSolveAfter
	// (the slow-solve watchdog fired for it). Always false when the
	// watchdog is disabled.
	Slow bool
	// Solver holds the instance's cumulative SAT-solver counters
	// (decisions, conflicts, restarts, ...).
	Solver sat.Stats
}

// SynthesizeContext computes configuration updates for net on topo
// that satisfy ps and maximally satisfy the objectives, with
// cancellation: once ctx is
// canceled every in-flight CDCL search stops at its next conflict and
// the call returns ctx.Err().
func SynthesizeContext(ctx context.Context, net *config.Network, topo *topology.Topology, ps []policy.Policy, opts Options) (*Result, error) {
	start := time.Now()
	tr := opts.tracer()
	root := tr.StartCtx(ctx, "synthesize")
	defer root.End()

	gsp := root.Child("group")
	ps, groups, dests := groupDests(ps)
	gsp.SetInt("policies", int64(len(ps)))
	gsp.SetInt("destinations", int64(len(dests)))
	gsp.End()

	wd := opts.watchdog(tr)
	res := &Result{}
	if opts.Monolithic {
		if err := solveMonolithic(ctx, net, topo, groups, dests, opts, res, tr, root, wd); err != nil {
			return nil, err
		}
	} else if err := solveSplit(ctx, net, topo, groups, dests, opts, res, tr, root, wd); err != nil {
		return nil, err
	}
	for _, is := range res.Instances {
		res.Solver = res.Solver.Add(is.Solver)
	}

	applyAndValidate(net, topo, ps, opts, res, root)
	res.Duration = time.Since(start)
	root.SetBool("sat", res.unsat == nil)
	root.SetInt("decisions", res.Solver.Decisions)
	root.SetInt("conflicts", res.Solver.Conflicts)
	tr.Metrics().Counter("synthesize.runs").Add(1)
	tr.Metrics().Histogram("synthesize.duration_ms", obs.LatencyBuckets).
		Observe(float64(res.Duration.Microseconds()) / 1000)
	return res, nil
}

// groupDests canonicalizes policies (dedup + isolation subdivision) and
// groups them per destination prefix, returning the destinations in
// sorted order. Shared by the one-shot and session paths.
func groupDests(ps []policy.Policy) ([]policy.Policy, map[prefix.Prefix][]policy.Policy, []prefix.Prefix) {
	ps = policy.SubdividePolicies(policy.Dedup(ps))
	groups := policy.GroupByDestination(ps)
	dests := make([]prefix.Prefix, 0, len(groups))
	for d := range groups {
		dests = append(dests, d)
	}
	prefix.Sort(dests)
	return ps, groups, dests
}

// applyAndValidate materializes a satisfiable result: apply the merged
// edits, diff against the input snapshot, and (unless skipped) re-check
// the updated network with the concrete simulator.
func applyAndValidate(net *config.Network, topo *topology.Topology, ps []policy.Policy, opts Options, res *Result, root *obs.Span) {
	if res.unsat != nil {
		return
	}
	asp := root.Child("apply")
	res.Updated = encode.Apply(net, res.Edits)
	res.Diff = config.Diff(net, res.Updated)
	asp.SetInt("edits", int64(len(res.Edits)))
	asp.End()
	if !opts.SkipValidation {
		vsp := root.Child("validate")
		sim := simulate.New(res.Updated, topo)
		res.Violations = sim.CheckAll(ps)
		vsp.SetInt("violations", int64(len(res.Violations)))
		vsp.End()
	}
}

// instantiateObjectives builds the desugared instances against the
// delta-augmented tree.
func instantiateObjectives(net *config.Network, objs []objective.Objective, deltas []*encode.Delta) []objective.Instance {
	tree := config.Tree(net)
	encode.AugmentTree(tree, deltas)
	return objective.InstantiateAll(objs, tree)
}

func solveMonolithic(ctx context.Context, net *config.Network, topo *topology.Topology,
	groups map[prefix.Prefix][]policy.Policy, dests []prefix.Prefix,
	opts Options, res *Result, tr *obs.Tracer, root *obs.Span, wd *obs.Watchdog) error {

	msp := root.Child("monolithic")
	defer msp.End()
	stop := wd.Watch(ctx, "monolithic")
	defer stop()
	j := encode.NewJoint(net, topo, opts.Encode)
	j.Observe(msp, tr.Metrics())
	esp := msp.Child("encode")
	total := 0
	for _, d := range dests {
		if err := j.AddGroup(d, groups[d]); err != nil {
			return err
		}
		total += len(groups[d])
	}
	j.AddObjectives(instantiateObjectives(net, opts.Objectives, j.Deltas()))
	if opts.MinimizeLines {
		j.PenalizeDeltas(1)
	}
	esp.SetInt("vars", int64(j.Ctx.NumSATVars()))
	esp.SetInt("deltas", int64(len(j.Deltas())))
	esp.End()
	r := j.SolveContext(ctx, opts.Strategy)
	if r.Err != nil {
		return r.Err
	}
	res.SolveTime = r.Duration
	res.Instances = append(res.Instances, InstanceStats{
		Policies: total, NumVars: r.NumVars, NumClauses: r.NumClauses, NumDeltas: r.NumDeltas,
		Iterations: r.Iterations, Duration: r.Duration, Sat: r.Sat,
		Slow:   opts.markSlow(r.Duration),
		Solver: r.Stats,
	})
	if !r.Sat {
		for _, d := range dests {
			res.setUnsat(d, nil)
		}
		return nil
	}
	res.Edits = r.Edits
	res.ObjectiveViolations = r.ViolatedWeight
	return nil
}

// encSize is an instance's size right after encoding, as
// smt.Context.Size reports it: SAT variables, clause-arena words and
// problem clauses.
type encSize struct{ vars, words, clauses int }

// sizeMax is the running maximum of the encSizes of one call's
// instances, shared by its workers. Destinations of one network encode
// to nearly equal sizes, so an instance that reserves the maximum
// before it encodes fills its solver storage in place
// instead of regrowing them from empty.
type sizeMax struct{ vars, words, clauses atomic.Int64 }

func (m *sizeMax) note(s encSize) {
	atomicMax(&m.vars, s.vars)
	atomicMax(&m.words, s.words)
	atomicMax(&m.clauses, s.clauses)
}

func (m *sizeMax) load() encSize {
	return encSize{int(m.vars.Load()), int(m.words.Load()), int(m.clauses.Load())}
}

func atomicMax(a *atomic.Int64, v int) {
	for {
		old := a.Load()
		if int64(v) <= old || a.CompareAndSwap(old, int64(v)) {
			return
		}
	}
}

// sizeHint presizes one instance: solveInstance reserves reserve before
// encoding, then stores the instance's own size in encoded and notes it
// in shared, the call's running maximum.
type sizeHint struct {
	reserve, encoded encSize
	shared           *sizeMax
}

// solveInstance encodes and solves one destination group under its
// destination span dsp: the unit of work shared by the one-shot split
// path and the session engine. It also returns the live encoder so a
// session can retain the instance and later re-solve it in place (see
// resolveLive in session.go); live asserts the policies retractably
// (encode.EncodeRetractable) so the retained instance can follow
// policy edits too.
func solveInstance(ctx context.Context, net *config.Network, topo *topology.Topology,
	d prefix.Prefix, group []policy.Policy, opts Options, live bool, size *sizeHint,
	tr *obs.Tracer, dsp *obs.Span, wd *obs.Watchdog) (*encode.Result, *encode.Encoder, error) {

	dest := d.String()
	stop := wd.Watch(ctx, dest)
	defer stop()
	ri, _ := obs.RequestFrom(ctx)
	rec := tr.Recorder()
	rec.RecordRequest(obs.EvSolveStart, dest, ri.ID, 0, 0)
	e := encode.New(net, topo, d, opts.Encode)
	e.Ctx.Reserve(size.reserve.vars, size.reserve.words, size.reserve.clauses)
	e.Observe(dsp, tr.Metrics())
	esp := dsp.Child("encode")
	encodePolicies := e.EncodePolicies
	if live {
		encodePolicies = e.EncodeRetractable
	}
	if err := encodePolicies(group); err != nil {
		esp.End()
		return nil, nil, err
	}
	e.AddObjectives(instantiateObjectives(net, opts.Objectives, e.Deltas()))
	if opts.MinimizeLines {
		e.PenalizeDeltas(1)
	}
	esp.SetInt("vars", int64(e.Ctx.NumSATVars()))
	esp.SetInt("deltas", int64(len(e.Deltas())))
	esp.End()
	size.encoded.vars, size.encoded.words, size.encoded.clauses = e.Ctx.Size()
	size.shared.note(size.encoded)
	r := e.SolveContext(ctx, opts.Strategy)
	var satBit int64
	if r.Sat {
		satBit = 1
	}
	rec.RecordRequest(obs.EvSolveEnd, dest, ri.ID, satBit, r.Duration.Milliseconds())
	return r, e, nil
}

// destinationSpan opens the span of one destination's solve.
func destinationSpan(root *obs.Span, d prefix.Prefix) *obs.Span {
	dsp := root.Child("destination")
	dsp.SetStr("dest", d.String())
	return dsp
}

// runInstances executes n index-addressed solve tasks, concurrently
// unless Sequential is set, bounded by Workers (0 = GOMAXPROCS).
//
// A task that panics is stopped there and the others run on: the
// panic, with the stack it was raised on, comes back as a *PanicError
// at the task's index in panics, which is nil when no task panicked.
// One request's bug so costs that request, not every solve sharing
// the process.
//
// When est is non-nil it holds one relative cost estimate per task and
// the tasks are dispatched longest-expected-first: a fixed pool of
// worker goroutines pulls indices from a shared atomic cursor over the
// cost-sorted order (LPT list scheduling). Starting the predicted-
// hardest instance first bounds the makespan — the old FIFO semaphore
// could start the hardest destination last and leave every other worker
// idle while it ran alone. The sequential path ignores est and keeps
// the deterministic input order (total time is order-independent there).
func runInstances(n int, opts Options, est []int64, f func(i int)) (panics []error) {
	var mu sync.Mutex
	run := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				err := &PanicError{Value: v, Stack: debug.Stack()}
				mu.Lock()
				if panics == nil {
					panics = make([]error, n)
				}
				panics[i] = err
				mu.Unlock()
			}
		}()
		f(i)
	}
	if opts.Sequential || n <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return panics
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if est != nil {
		sort.SliceStable(order, func(a, b int) bool {
			return est[order[a]] > est[order[b]]
		})
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				run(order[k])
			}
		}()
	}
	wg.Wait()
	return panics
}

// PanicError is a panic recovered from one per-destination solve: the
// panic value and the stack of the goroutine that raised it. Its
// message names the value only; the stack is for logs, not for the
// wire.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// explainDest computes a minimal conflicting policy subset for an
// unsatisfiable destination (Options.Explain).
func explainDest(net *config.Network, topo *topology.Topology, d prefix.Prefix,
	group []policy.Policy, opts Options) []policy.Policy {
	explainer := encode.New(net, topo, d, opts.Encode)
	conflict, err := explainer.ExplainConflict(group)
	if err != nil {
		return nil
	}
	return conflict
}

func solveSplit(ctx context.Context, net *config.Network, topo *topology.Topology,
	groups map[prefix.Prefix][]policy.Policy, dests []prefix.Prefix,
	opts Options, res *Result, tr *obs.Tracer, root *obs.Span, wd *obs.Watchdog) error {

	type outcome struct {
		dest   prefix.Prefix
		result *encode.Result
		err    error
	}
	outcomes := make([]outcome, len(dests))

	// One-shot runs have no solve history, so the cost estimate is the
	// policy-group size — the main driver of per-destination CNF size.
	est := make([]int64, len(dests))
	for i, d := range dests {
		est[i] = int64(len(groups[d]))
	}

	var sizes sizeMax
	panics := runInstances(len(dests), opts, est, func(i int) {
		d := dests[i]
		if err := ctx.Err(); err != nil {
			// Canceled before this instance started: skip the encoding
			// work entirely.
			outcomes[i] = outcome{dest: d, err: err}
			return
		}
		size := sizeHint{reserve: sizes.load(), shared: &sizes}
		dsp := destinationSpan(root, d)
		defer dsp.End()
		r, _, err := solveInstance(ctx, net, topo, d, groups[d], opts, false, &size, tr, dsp, wd)
		outcomes[i] = outcome{dest: d, result: r, err: err}
	})
	for i, err := range panics {
		if err != nil {
			return fmt.Errorf("destination %s: %w", dests[i], err)
		}
	}

	for _, o := range outcomes {
		if o.err == nil && o.result != nil && o.result.Err != nil {
			// An interrupted instance means the whole call was canceled;
			// report the context's error, not a partial result.
			return o.result.Err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	var critical time.Duration
	for i, o := range outcomes {
		if o.err != nil {
			return fmt.Errorf("destination %s: %w", o.dest, o.err)
		}
		r := o.result
		res.Instances = append(res.Instances, InstanceStats{
			Destination: o.dest, Policies: len(groups[dests[i]]),
			NumVars: r.NumVars, NumClauses: r.NumClauses, NumDeltas: r.NumDeltas,
			Iterations: r.Iterations, Duration: r.Duration, Sat: r.Sat,
			Slow:   opts.markSlow(r.Duration),
			Solver: r.Stats,
		})
		res.SolveTime += r.Duration
		if r.Duration > critical {
			critical = r.Duration
		}
		if !r.Sat {
			var conflict []policy.Policy
			if opts.Explain {
				conflict = explainDest(net, topo, o.dest, groups[o.dest], opts)
			}
			res.setUnsat(o.dest, conflict)
			continue
		}
		res.Edits = append(res.Edits, r.Edits...)
		res.ObjectiveViolations += r.ViolatedWeight
	}
	return nil
}

// MinLinesOptions enables the exact min-lines objective on opts: one
// unit-weight penalty per delta variable, so each changed line counts
// one violation (the Fig. 9 min-lines configuration).
func MinLinesOptions(opts Options) Options {
	opts.MinimizeLines = true
	return opts
}

// SortEdits orders edits deterministically for stable reports.
func SortEdits(edits []encode.Edit) {
	sort.Slice(edits, func(i, j int) bool {
		if edits[i].Router != edits[j].Router {
			return edits[i].Router < edits[j].Router
		}
		if edits[i].Kind != edits[j].Kind {
			return edits[i].Kind < edits[j].Kind
		}
		return edits[i].String() < edits[j].String()
	})
}
