// Package core is the AED engine: it orchestrates the full synthesis
// pipeline of the paper — group policies by destination (§8), build a
// symbolic sketch and policy constraints per group (§5–6), translate
// management objectives to soft constraints (§7), solve the MaxSMT
// instances (in parallel by default), merge the extracted edits, and
// validate the updated configurations with the concrete simulator.
package core

import (
	"context"
	"errors"
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
	// Duration is the end-to-end synthesis time; SolveTime the sum of
	// the call's per-instance solve durations, which exceeds the wall
	// time when instances run in parallel.
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
	tr := opts.tracer()
	c := newCall(tr, tr.StartCtx(ctx, "synthesize"), net, topo, ps, opts)
	defer c.root.End()

	var res *Result
	var err error
	if opts.Monolithic {
		res, err = c.solveMonolithic(ctx)
	} else {
		// A one-shot call knows nothing of earlier solves: every
		// destination is solved from scratch and no instance is kept.
		out := make([]destSolve, len(c.dests))
		if _, err = c.solveDests(ctx, out, false); err == nil {
			res = c.merge(out)
		}
	}
	if err != nil {
		return nil, err
	}

	c.finish(res)
	c.root.SetInt("decisions", res.Solver.Decisions)
	c.root.SetInt("conflicts", res.Solver.Conflicts)
	tr.Metrics().Counter("synthesize.runs").Add(1)
	tr.Metrics().Histogram("synthesize.duration_ms", obs.LatencyBuckets).
		Observe(float64(res.Duration.Microseconds()) / 1000)
	return res, nil
}

// call is one SynthesizeContext or Engine.Solve call: its inputs, its
// policies grouped by destination and its telemetry, shared by the
// per-destination workers and the merge.
type call struct {
	start  time.Time
	net    *config.Network
	topo   *topology.Topology
	opts   Options
	ps     []policy.Policy // canonical policies, validated after the solve
	groups map[prefix.Prefix][]policy.Policy
	dests  []prefix.Prefix // sorted
	tr     *obs.Tracer
	root   *obs.Span
	wd     *obs.Watchdog
}

// newCall starts a call whose telemetry goes to tr under root, the
// span its caller opened, and groups ps by destination under a group
// span.
func newCall(tr *obs.Tracer, root *obs.Span, net *config.Network, topo *topology.Topology,
	ps []policy.Policy, opts Options) *call {

	c := &call{start: time.Now(), net: net, topo: topo, opts: opts,
		tr: tr, root: root, wd: opts.watchdog(tr)}
	gsp := c.root.Child("group")
	c.ps, c.groups, c.dests = groupDests(ps)
	gsp.SetInt("policies", int64(len(c.ps)))
	gsp.SetInt("destinations", int64(len(c.dests)))
	gsp.End()
	return c
}

// groupDests canonicalizes policies (dedup + isolation subdivision) and
// groups them per destination prefix, returning the destinations in
// sorted order.
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

// finish materializes a satisfiable result — apply the merged edits,
// diff against the input snapshot, and (unless skipped) re-check the
// updated network with the concrete simulator — then stamps the call's
// duration and verdict.
func (c *call) finish(res *Result) {
	if res.unsat == nil {
		asp := c.root.Child("apply")
		res.Updated = encode.Apply(c.net, res.Edits)
		res.Diff = config.Diff(c.net, res.Updated)
		asp.SetInt("edits", int64(len(res.Edits)))
		asp.End()
		if !c.opts.SkipValidation {
			vsp := c.root.Child("validate")
			res.Violations = simulate.New(res.Updated, c.topo).CheckAll(c.ps)
			vsp.SetInt("violations", int64(len(res.Violations)))
			vsp.End()
		}
	}
	res.Duration = time.Since(c.start)
	c.root.SetBool("sat", res.unsat == nil)
}

// instantiateObjectives builds the desugared instances against the
// delta-augmented tree.
func instantiateObjectives(net *config.Network, objs []objective.Objective, deltas []*encode.Delta) []objective.Instance {
	tree := config.Tree(net)
	encode.AugmentTree(tree, deltas)
	return objective.InstantiateAll(objs, tree)
}

// solveMonolithic solves every destination group in one joint MaxSMT
// problem (the Fig. 14 baseline).
func (c *call) solveMonolithic(ctx context.Context) (*Result, error) {
	msp := c.root.Child("monolithic")
	defer msp.End()
	stop := c.wd.Watch(ctx, "monolithic")
	defer stop()
	j := encode.NewJoint(c.net, c.topo, c.opts.Encode)
	j.Observe(msp, c.tr.Metrics())
	esp := msp.Child("encode")
	total := 0
	for _, d := range c.dests {
		if err := j.AddGroup(d, c.groups[d]); err != nil {
			return nil, err
		}
		total += len(c.groups[d])
	}
	j.AddObjectives(instantiateObjectives(c.net, c.opts.Objectives, j.Deltas()))
	if c.opts.MinimizeLines {
		j.PenalizeDeltas(1)
	}
	esp.SetInt("vars", int64(j.Ctx.NumSATVars()))
	esp.SetInt("deltas", int64(len(j.Deltas())))
	esp.End()
	r := j.SolveContext(ctx, c.opts.Strategy)
	if r.Err != nil {
		return nil, r.Err
	}
	res := &Result{SolveTime: r.Duration, Solver: r.Stats,
		Instances: []InstanceStats{c.opts.instanceStats(prefix.Prefix{}, total, r)}}
	if !r.Sat {
		for _, d := range c.dests {
			res.setUnsat(d, nil)
		}
		return res, nil
	}
	res.Edits = r.Edits
	res.ObjectiveViolations = r.ViolatedWeight
	return res, nil
}

// instanceStats reports one instance from its solve result r, flagged
// Slow when the solve outlived Options.SlowSolveAfter (what `aed
// -stats` renders as the slow column).
func (o Options) instanceStats(d prefix.Prefix, policies int, r *encode.Result) InstanceStats {
	return InstanceStats{
		Destination: d, Policies: policies,
		NumVars: r.NumVars, NumClauses: r.NumClauses, NumDeltas: r.NumDeltas,
		Iterations: r.Iterations, Duration: r.Duration, Sat: r.Sat,
		Slow:   o.SlowSolveAfter > 0 && r.Duration >= o.SlowSolveAfter,
		Solver: r.Stats,
	}
}

// destSolve is one destination of a split call. Before the call, a
// session fills in what its cache knows (cached, prev, live); in a
// one-shot call, and for a destination new to the session, they are
// zero and the destination is solved from scratch. solveDests and
// merge fill in the rest.
type destSolve struct {
	cached bool            // served from the cache as res and conflict; not solved again
	prev   *cacheEntry     // previous solve: cost estimate and presize; nil when none
	live   *encode.Encoder // live instance to retarget (tier 2); nil when none

	res      *encode.Result
	conflict []policy.Policy    // Options.Explain output for an unsat res
	enc      *encode.Encoder    // parked instance for the session to keep; nil when none
	size     encSize            // encoded size, reserved by the next re-encode
	rebound  bool               // re-solved on live
	rt       encode.Retargeting // what the tier-2 re-solve changed
	err      error
}

// solveDests solves every destination that out does not mark cached,
// through runInstances, and returns the indices of the destinations
// whose solve panicked with the call's error, chosen in this order:
// every panic (joined); an interrupted instance's Err, since then the
// whole call was canceled and a partial result is no answer; ctx.Err();
// the first per-destination error, in destination order. keep encodes
// fresh instances retractably and parks them in out[i].enc, for a
// session to keep (see keepsLive).
func (c *call) solveDests(ctx context.Context, out []destSolve, keep bool) (panicked []int, err error) {
	var todo []int
	for i := range out {
		if !out[i].cached {
			todo = append(todo, i)
		}
	}

	// Cost estimates for longest-expected-first dispatch: the
	// destination's last observed solve time when it has one, its last
	// CNF size as a proxy otherwise, and its policy-group size — the main
	// driver of CNF size — when it has no history (every destination of
	// a one-shot call). Mixed units only occur on the first warm call
	// after new destinations appear, where any history-first ordering is
	// still better than FIFO.
	est := make([]int64, len(todo))
	for k, i := range todo {
		switch p := out[i].prev; {
		case p != nil && p.res.Duration > 0:
			est[k] = int64(p.res.Duration)
		case p != nil && p.res.NumClauses > 0:
			est[k] = int64(p.res.NumClauses)
		default:
			est[k] = int64(len(c.groups[c.dests[i]]))
		}
	}

	var sibling sizeMax
	panics := runInstances(len(todo), c.opts, est, func(k int) {
		i := todo[k]
		c.solveDest(ctx, c.dests[i], &out[i], keep, &sibling)
	})

	var errs []error
	for k, err := range panics {
		if err != nil {
			panicked = append(panicked, todo[k])
			errs = append(errs, fmt.Errorf("destination %s: %w", c.dests[todo[k]], err))
		}
	}
	if len(errs) > 0 {
		return panicked, errors.Join(errs...)
	}
	for _, i := range todo {
		if out[i].err == nil && out[i].res != nil && out[i].res.Err != nil {
			return nil, out[i].res.Err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, i := range todo {
		if out[i].err != nil {
			return nil, fmt.Errorf("destination %s: %w", c.dests[i], out[i].err)
		}
	}
	return nil, nil
}

// solveDest is the per-destination worker of solveDests. It re-solves
// d on its live instance when the edit allows it (tier 2, resolveLive)
// and encodes it from scratch otherwise (solveInstance), all under one
// destination span (a live instance that refuses the edit re-encodes
// under it), one watchdog arm and one EvSolveStart/EvSolveEnd pair.
func (c *call) solveDest(ctx context.Context, d prefix.Prefix, o *destSolve, keep bool, sibling *sizeMax) {
	if err := ctx.Err(); err != nil {
		// Canceled before this instance started: skip the encoding work
		// entirely.
		o.err = err
		return
	}
	dest := d.String()
	dsp := c.root.Child("destination")
	dsp.SetStr("dest", dest)
	defer dsp.End()
	stop := c.wd.Watch(ctx, dest)
	defer stop()
	ri, _ := obs.RequestFrom(ctx)
	rec := c.tr.Recorder()
	rec.RecordRequest(obs.EvSolveStart, dest, ri.ID, 0, 0)

	if o.live != nil && c.resolveLive(ctx, d, o, dsp) {
		rec.RecordRequest(obs.EvRebind, dest, ri.ID, int64(o.rt.Swapped), o.res.Duration.Milliseconds())
	} else {
		// A re-encode (tier 3) reserves the destination's previous
		// encoded size; a destination without one reserves the largest
		// size encoded so far in this call.
		reserve := sibling.load()
		if o.prev != nil && o.prev.size.vars > 0 {
			reserve = o.prev.size
		}
		c.solveInstance(ctx, d, o, keep, reserve, sibling, dsp)
	}
	if o.res != nil {
		var satBit int64
		if o.res.Sat {
			satBit = 1
		}
		rec.RecordRequest(obs.EvSolveEnd, dest, ri.ID, satBit, o.res.Duration.Milliseconds())
	}
}

// solveInstance encodes and solves destination d from scratch under its
// destination span dsp, into o: the result, the encoded size and, with
// keep, the parked encoder, whose policies are asserted retractably
// (encode.EncodeRetractable) so that a session can later retarget it.
// It reserves reserve before encoding and notes the encoded size in
// sibling, the call's running maximum.
func (c *call) solveInstance(ctx context.Context, d prefix.Prefix, o *destSolve, keep bool,
	reserve encSize, sibling *sizeMax, dsp *obs.Span) {

	e := encode.New(c.net, c.topo, d, c.opts.Encode)
	e.Ctx.Reserve(reserve.vars, reserve.words, reserve.clauses)
	e.Observe(dsp, c.tr.Metrics())
	esp := dsp.Child("encode")
	encodePolicies := e.EncodePolicies
	if keep {
		encodePolicies = e.EncodeRetractable
	}
	if o.err = encodePolicies(c.groups[d]); o.err != nil {
		esp.End()
		return
	}
	e.AddObjectives(instantiateObjectives(c.net, c.opts.Objectives, e.Deltas()))
	if c.opts.MinimizeLines {
		e.PenalizeDeltas(1)
	}
	esp.SetInt("vars", int64(e.Ctx.NumSATVars()))
	esp.SetInt("deltas", int64(len(e.Deltas())))
	esp.End()
	o.size.vars, o.size.words, o.size.clauses = e.Ctx.Size()
	sibling.note(o.size)
	o.res = e.SolveContext(ctx, c.opts.Strategy)
	if keep {
		e.Park() // on the worker, so fresh instances compact in parallel
		o.enc = e
	}
}

// merge assembles the call's Result from out, in destination order.
// SolveTime and Solver count only work done in this call: a cached
// instance is free (its InstanceStats keep the original solve's
// counters, flagged Cached), and a rebound one counts only its
// incremental search. An unsat destination solved in this call gets a
// minimal conflicting policy subset when Options.Explain is set, kept
// in out[i].conflict for the session cache.
func (c *call) merge(out []destSolve) *Result {
	res := &Result{}
	for i, d := range c.dests {
		o := &out[i]
		r := o.res
		is := c.opts.instanceStats(d, len(c.groups[d]), r)
		if o.cached {
			is.Cached, is.Slow = true, false
		} else {
			if !r.Sat && c.opts.Explain {
				o.conflict, _ = encode.New(c.net, c.topo, d, c.opts.Encode).ExplainConflict(c.groups[d])
			}
			retargeted := o.rt.Added+o.rt.Retracted > 0
			is.Rebound, is.Retargeted = o.rebound && !retargeted, o.rebound && retargeted
			res.SolveTime += r.Duration
			res.Solver = res.Solver.Add(r.Stats)
		}
		res.Instances = append(res.Instances, is)
		if !r.Sat {
			res.setUnsat(d, o.conflict)
			continue
		}
		res.Edits = append(res.Edits, r.Edits...)
		res.ObjectiveViolations += r.ViolatedWeight
	}
	return res
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
