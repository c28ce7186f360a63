// Package aed is the public API of the AED configuration synthesizer —
// a from-scratch Go reproduction of "AED: Incrementally Synthesizing
// Policy-Compliant and Manageable Configurations" (CoNEXT 2020).
//
// AED takes a network's current router configurations, a set of
// forwarding policies, and a set of management objectives written in a
// small high-level language, and computes configuration updates that
// rectify policy violations while maximally satisfying the objectives.
//
// Quick start:
//
//	net, _ := aed.ParseConfigs(map[string]string{"r1": cfg1, "r2": cfg2})
//	topo := aed.NewTopology("lab")
//	// ... describe routers, links and subnets ...
//	ps, _ := aed.ParsePolicies("block 10.0.0.0/24 -> 10.1.0.0/24\n")
//	objs, _ := aed.ParseObjectives(`NOMODIFY //Router GROUPBY name`)
//	res, _ := aed.SynthesizeContext(ctx, net, topo, ps, aed.Options{Objectives: objs})
//	for name, text := range aed.PrintConfigs(res.Updated) { ... }
//
// Or, with every input as one serializable value (the same type the
// aedd service and the aed/client package accept over the wire):
//
//	resp, _ := aed.Do(ctx, aed.Request{
//		Configs:  map[string]string{"r1": cfg1, "r2": cfg2},
//		Topology: "router r1\nrouter r2\nlink r1 r2\n...",
//		Policies: "block 10.0.0.0/24 -> 10.1.0.0/24\n",
//	})
//
// See the examples/ directory for complete programs and DESIGN.md for
// the system inventory and paper-experiment index.
package aed

import (
	"context"
	"io"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/deploy"
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

// Re-exported model types. The internal packages carry the full API;
// these aliases are the stable public surface.
type (
	// Network is a parsed set of router configurations.
	Network = config.Network
	// Router is one device's configuration.
	Router = config.Router
	// Topology is the physical network graph.
	Topology = topology.Topology
	// Policy is one forwarding policy.
	Policy = policy.Policy
	// Objective is one management objective.
	Objective = objective.Objective
	// Prefix is an IPv4 prefix.
	Prefix = prefix.Prefix
	// Result is a synthesis outcome.
	Result = core.Result
	// Options configures synthesis.
	Options = core.Options
	// Edit is one extracted configuration change.
	Edit = encode.Edit
	// Violation is a policy the configurations do not satisfy.
	Violation = simulate.Violation
	// DiffStats summarizes configuration changes.
	DiffStats = config.DiffStats
)

// Policy kinds.
const (
	Reachability   = policy.Reachability
	Blocking       = policy.Blocking
	Waypoint       = policy.Waypoint
	PathPreference = policy.PathPreference
	Isolation      = policy.Isolation
	PathLength     = policy.PathLength
)

// MaxSAT strategies for Options.Strategy. Each forces its search; the
// zero Strategy picks core-guided search for fresh instances and
// linear descent for warm re-solves (see Options.Strategy).
const (
	LinearDescent = smt.LinearDescent
	CoreGuided    = smt.CoreGuided
)

// SynthesizeContext computes configuration updates for net on topo
// that satisfy ps and maximally satisfy the objectives in opts, with
// cancellation: once ctx is canceled (or its deadline passes) every
// in-flight CDCL search stops at its next conflict and the call
// returns ctx.Err().
//
// For a fully serializable entry point — the one the aedd service and
// the aed/client package share — see Do and the Request/Response pair.
func SynthesizeContext(ctx context.Context, net *Network, topo *Topology, ps []Policy, opts Options) (*Result, error) {
	return core.SynthesizeContext(ctx, net, topo, ps, opts)
}

// DefaultOptions returns the paper's fully optimized configuration
// (per-destination parallel solving, pruning, boolean rank metrics,
// simulator validation). Since the Options redesign the zero value IS
// the paper default, so this is a documented alias for Options{}.
func DefaultOptions() Options { return core.DefaultOptions() }

// Session is an incremental synthesis engine: it holds the parsed
// network and topology and, across successive Solve calls, re-solves
// only the destinations whose policies, relevant configuration
// subtree, or objectives changed, reusing cached results for the rest.
// Use it for the operator loop the paper targets — edit, re-run,
// repeat — where most of the network is unchanged between runs.
//
//	sess := aed.NewSession(net, topo, aed.Options{Objectives: objs})
//	res, err := sess.Solve(ctx, ps)        // cold: solves everything
//	res, err = sess.Solve(ctx, editedPs)   // warm: only dirty destinations
type Session = core.Engine

// NewSession starts an incremental synthesis session; opts apply to
// every subsequent Solve call.
func NewSession(net *Network, topo *Topology, opts Options) *Session {
	return core.NewEngine(net, topo, opts)
}

// UnsatError is the structured unsatisfiability report returned by
// (*Result).Unsat, keyed by destination prefix.
type UnsatError = core.UnsatError

// ParseConfigs parses router configurations keyed by a label (e.g.
// file name) and validates cross-references.
func ParseConfigs(texts map[string]string) (*Network, error) {
	return config.ParseNetwork(texts)
}

// ParseConfig parses a single router configuration.
func ParseConfig(text string) (*Router, error) { return config.Parse(text) }

// PrintConfigs renders every router's canonical configuration text.
func PrintConfigs(net *Network) map[string]string { return config.PrintNetwork(net) }

// Diff summarizes the structural difference between two snapshots.
func Diff(before, after *Network) *DiffStats { return config.Diff(before, after) }

// ParsePolicies parses a policy file (one policy per line; see the
// policy package for the grammar).
func ParsePolicies(text string) ([]Policy, error) { return policy.Parse(text) }

// ParseObjectives parses an objective file (one objective per line:
// RESTRICTION xpath [GROUPBY attr] [WEIGHT n]).
func ParseObjectives(text string) ([]Objective, error) { return objective.Parse(text) }

// NamedObjectives returns a predefined objective set from the library
// (Table 2 of the paper): preserve-templates, min-devices, min-pfs,
// avoid-static, min-lines.
func NamedObjectives(name string) ([]Objective, error) { return objective.Named(name) }

// NewTopology returns an empty topology to populate with AddRouter,
// AddLink, and AddSubnet.
func NewTopology(name string) *Topology { return topology.New(name) }

// ParsePrefix parses "a.b.c.d/len".
func ParsePrefix(s string) (Prefix, error) { return prefix.Parse(s) }

// Check evaluates policies against configurations on a topology using
// the concrete control-plane simulator, returning all violations.
func Check(net *Network, topo *Topology, ps []Policy) []Violation {
	return simulate.New(net, topo).CheckAll(ps)
}

// InferReachability computes the reachability policies that currently
// hold between every pair of subnets (the paper's Minesweeper-based
// policy inference).
func InferReachability(net *Network, topo *Topology) []Policy {
	return simulate.New(net, topo).InferReachability()
}

// Telemetry surface: a Tracer collects phase spans (parse → encode →
// solve → extract → validate) and solver metrics for a synthesis run.
// Set Options.Tracer to enable it; a nil tracer costs nothing.
type (
	// Tracer is the per-run telemetry collector.
	Tracer = obs.Tracer
	// Span is one timed pipeline phase.
	Span = obs.Span
	// TraceEvent is one exported JSONL telemetry record.
	TraceEvent = obs.Event
	// SolverStats are cumulative SAT-solver work counters.
	SolverStats = sat.Stats
	// InstanceStats describes one per-destination MaxSMT instance.
	InstanceStats = core.InstanceStats
)

// Flight-recorder and debug-endpoint surface.
type (
	// FlightRecorder is a fixed-capacity ring of solver events
	// (restarts, clause-database reductions, MaxSAT bound movements,
	// session cache activity) attached to a Tracer via SetRecorder.
	FlightRecorder = obs.Recorder
	// RecorderEvent is one drained flight-recorder entry.
	RecorderEvent = obs.RecorderEvent
	// Incident is a slow-solve watchdog snapshot (see
	// Options.SlowSolveAfter and Options.IncidentWriter).
	Incident = obs.Incident
	// TraceAnalysis is the offline view of a decoded trace: span tree,
	// per-phase aggregates, critical path (cmd/aedtrace's engine).
	TraceAnalysis = obs.Analysis
)

// NewTracer returns an enabled telemetry collector for Options.Tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewFlightRecorder returns a solver-event ring buffer holding the
// last capacity events (<=0 selects the default capacity).
func NewFlightRecorder(capacity int) *FlightRecorder { return obs.NewRecorder(capacity) }

// AnalyzeTrace reconstructs the span tree and per-phase timings from
// decoded trace events (ReadTrace output).
func AnalyzeTrace(events []TraceEvent) *TraceAnalysis { return obs.Analyze(events) }

// ServeDebug starts an HTTP debug endpoint on addr serving /metrics,
// /spans (including in-flight spans), /recorder, and /debug/pprof/ for
// the given tracer. It returns the bound address (useful with ":0")
// and a function that shuts the listener down.
func ServeDebug(addr string, t *Tracer) (string, func() error, error) {
	return obs.ServeDebug(addr, t)
}

// WriteTrace exports a tracer's spans and metrics as JSONL events.
func WriteTrace(w io.Writer, t *Tracer) error { return obs.WriteJSONL(w, t) }

// WriteTraceSummary renders a tracer's spans and metrics as a
// human-readable report.
func WriteTraceSummary(w io.Writer, t *Tracer) { obs.WriteSummary(w, t) }

// ReadTrace decodes a JSONL trace produced by WriteTrace, plain or
// gzip-compressed (a retention segment, or a trace piped through
// gzip). Decoding is strict: truncated, corrupt, or mixed input
// returns an error rather than a partial trace.
func ReadTrace(r io.Reader) ([]TraceEvent, error) { return obs.ReadEvents(r) }

// DeploymentPlan is an ordered per-device rollout of synthesized
// edits, checked for transient policy violations.
type DeploymentPlan = deploy.Plan

// PlanDeployment orders the edits into per-device steps such that,
// where possible, no intermediate state violates a policy that both
// the initial and final configurations satisfy (the safe-deployment
// extension of the paper's §11 future work).
func PlanDeployment(net *Network, topo *Topology, edits []Edit, ps []Policy) *DeploymentPlan {
	return deploy.Build(net, topo, edits, ps)
}
