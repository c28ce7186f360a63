// Package api defines the serializable request/response pair shared by
// every AED consumer: library callers (aed.Do), the aedd HTTP service
// (internal/service), and the aed/client package all speak these exact
// types, so a synthesis problem is one JSON-encodable value whether it
// crosses a function boundary or the network.
//
// The package also owns the service error taxonomy (errors.go): typed
// sentinel errors that map 1:1 to HTTP statuses and survive a JSON
// round-trip, so errors.Is/errors.As work identically for library and
// remote callers.
package api

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/objective"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/smt"
	"github.com/aed-net/aed/internal/topology"
)

// Service routes. The client and server agree on these; keeping them
// here is what makes the wire protocol a property of the API rather
// than of either endpoint.
const (
	PathSolve    = "/v1/solve"
	PathSessions = "/v1/sessions"
	PathRequests = "/v1/requests"
	PathHealthz  = "/healthz"
	PathMetrics  = "/metrics"
)

// Request-identity headers. The client sends both on every call; the
// server echoes HeaderRequestID on the response so a caller always
// learns the ID its solve ran under (its own, or the server-assigned
// one when it sent none).
const (
	// HeaderRequestID carries the request ID end to end. Precedence on
	// the server: header, then Request.RequestID in the body, then a
	// server-generated ID.
	HeaderRequestID = "X-AED-Request-Id"
	// HeaderTenant carries the tenant label; same precedence against
	// Request.Tenant, falling back to "default".
	HeaderTenant = "X-AED-Tenant"
)

// Request is one complete synthesis problem as a serializable value:
// the network snapshot, topology, policies, objectives, and solve
// options in the textual formats the CLIs already use. The same value
// drives aed.Do (in process), POST /v1/solve (over the wire), and the
// aed/client package.
type Request struct {
	// RequestID identifies this request across the whole stack: access
	// log, spans, flight-recorder events, watchdog incidents, and
	// histogram exemplars all carry it, and aedtrace -request filters on
	// it. Empty lets the transport assign one (the client generates an
	// ID before sending; the server generates one for requests that
	// arrive without). The X-AED-Request-Id header takes precedence over
	// this field on the service.
	RequestID string `json:"request_id,omitempty"`
	// Tenant attributes the request for budgeting and per-tenant
	// metrics; empty selects the "default" tenant. Library calls ignore
	// it.
	Tenant string `json:"tenant,omitempty"`
	// Session names a server-side incremental session. Requests with
	// the same (tenant, session) share an aed.Session: unchanged
	// destinations hit the fingerprint cache and edit-only config
	// changes re-solve on the live instances. Empty means a one-shot
	// solve. Library calls (aed.Do) ignore it.
	Session string `json:"session,omitempty"`
	// Configs maps router name to configuration text (the config
	// package dialect).
	Configs map[string]string `json:"configs"`
	// Topology is the line-oriented topology text:
	//
	//	router <name> [role]
	//	link <a> <b>
	//	subnet <router> <prefix>
	Topology string `json:"topology"`
	// Policies holds one policy per line (the policy package grammar).
	Policies string `json:"policies"`
	// Objectives holds one management objective per line (RESTRICTION
	// xpath [GROUPBY attr] [WEIGHT n]).
	Objectives string `json:"objectives,omitempty"`
	// ObjectiveSet names a predefined objective set (Table 2 of the
	// paper: preserve-templates, min-devices, min-pfs, avoid-static,
	// min-lines); combined with Objectives when both are set.
	ObjectiveSet string `json:"objective_set,omitempty"`
	// Options tune the solve; the zero value is the paper default.
	Options SolveOptions `json:"options"`
	// TimeoutMS bounds the solve (queue wait included, on the service).
	// Zero selects the server default; servers clamp it to their
	// configured maximum. On expiry every in-flight CDCL search stops
	// at its next conflict and the request fails with a
	// deadline_exceeded error.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SolveOptions is the wire subset of core.Options: everything
// serializable a remote caller may tune. The zero value is the paper
// default, as with core.Options.
type SolveOptions struct {
	// MinimizeLines adds a unit-weight penalty per changed line.
	MinimizeLines bool `json:"minimize_lines,omitempty"`
	// Monolithic solves one joint instance instead of per-destination.
	Monolithic bool `json:"monolithic,omitempty"`
	// Sequential disables per-destination parallelism inside the solve.
	Sequential bool `json:"sequential,omitempty"`
	// Explain computes a minimal conflicting policy subset per
	// unsatisfiable destination.
	Explain bool `json:"explain,omitempty"`
	// SkipValidation skips the simulator re-check of the result.
	SkipValidation bool `json:"skip_validation,omitempty"`
	// NoLiveInstances stops a session from retaining live solver
	// instances between solves (trades tier-2 re-solve speed for
	// memory).
	NoLiveInstances bool `json:"no_live_instances,omitempty"`
	// Workers bounds solver goroutines within this solve (0 = the
	// server's per-request default, GOMAXPROCS for library calls).
	Workers int `json:"workers,omitempty"`
	// Strategy selects the MaxSAT search. "" is smt.Auto: core-guided
	// on fresh instances, linear descent on warm re-solves of a live
	// session instance. "linear" and "core" force that search on every
	// path.
	Strategy string `json:"strategy,omitempty"`
}

// Problem is a materialized Request: the parsed inputs plus the
// translated core.Options, ready for core.SynthesizeContext or
// Engine.Solve.
type Problem struct {
	Net      *config.Network
	Topo     *topology.Topology
	Policies []policy.Policy
	Opts     core.Options
	Timeout  time.Duration
}

// Materialize parses and validates the request. Every failure wraps
// ErrInvalidRequest, so callers (and the service's 400 mapping) can
// test with errors.Is.
func (r *Request) Materialize() (*Problem, error) {
	invalid := func(what string, err error) error {
		return fmt.Errorf("%w: %s: %v", ErrInvalidRequest, what, err)
	}
	if len(r.Configs) == 0 {
		return nil, fmt.Errorf("%w: no router configs", ErrInvalidRequest)
	}
	net, err := config.ParseNetwork(r.Configs)
	if err != nil {
		return nil, invalid("configs", err)
	}
	topo, err := topology.ParseText("request", r.Topology)
	if err != nil {
		return nil, invalid("topology", err)
	}
	if len(topo.Routers) == 0 {
		return nil, fmt.Errorf("%w: empty topology", ErrInvalidRequest)
	}
	ps, err := policy.Parse(r.Policies)
	if err != nil {
		return nil, invalid("policies", err)
	}
	opts := core.DefaultOptions()
	opts.MinimizeLines = r.Options.MinimizeLines
	opts.Monolithic = r.Options.Monolithic
	opts.Sequential = r.Options.Sequential
	opts.Explain = r.Options.Explain
	opts.SkipValidation = r.Options.SkipValidation
	opts.NoLiveInstances = r.Options.NoLiveInstances
	opts.Workers = r.Options.Workers
	switch r.Options.Strategy {
	case "":
		opts.Strategy = smt.Auto
	case "linear":
		opts.Strategy = smt.LinearDescent
	case "core":
		opts.Strategy = smt.CoreGuided
	default:
		return nil, fmt.Errorf("%w: unknown strategy %q (want linear or core)",
			ErrInvalidRequest, r.Options.Strategy)
	}
	if r.ObjectiveSet != "" {
		objs, err := objective.Named(r.ObjectiveSet)
		if err != nil {
			return nil, invalid("objective set", err)
		}
		opts.Objectives = append(opts.Objectives, objs...)
	}
	if r.Objectives != "" {
		objs, err := objective.Parse(r.Objectives)
		if err != nil {
			return nil, invalid("objectives", err)
		}
		opts.Objectives = append(opts.Objectives, objs...)
	}
	if r.TimeoutMS < 0 {
		return nil, fmt.Errorf("%w: negative timeout_ms", ErrInvalidRequest)
	}
	return &Problem{
		Net: net, Topo: topo, Policies: ps, Opts: opts,
		Timeout: time.Duration(r.TimeoutMS) * time.Millisecond,
	}, nil
}

// OptionsKey summarizes the parts of a request that force a session
// rebuild when they change (objectives and solve options; the network
// and policies are handled incrementally by the session fingerprints).
func (r *Request) OptionsKey() string {
	return fmt.Sprintf("%+v|%s|%s", r.Options, r.ObjectiveSet, r.Objectives)
}

// Response is the serializable synthesis outcome: what core.Result
// reports, reduced to wire-friendly types. Unsatisfiable runs are NOT
// responses — they surface as a *core.UnsatError (wire code "unsat")
// so that error handling is uniform across transports.
type Response struct {
	// DurationMS is the end-to-end time of the solve; SolveTimeMS the
	// summed per-instance solver time for work done in this call
	// (cached instances are free).
	DurationMS  float64 `json:"duration_ms"`
	SolveTimeMS float64 `json:"solve_time_ms"`
	// Configs holds every router's updated configuration text.
	Configs map[string]string `json:"configs,omitempty"`
	// Edits lists the merged configuration changes, sorted.
	Edits []string `json:"edits,omitempty"`
	// DevicesChanged / LinesAdded / LinesRemoved summarize the diff
	// against the request snapshot.
	DevicesChanged int `json:"devices_changed"`
	LinesAdded     int `json:"lines_added"`
	LinesRemoved   int `json:"lines_removed"`
	// ObjectiveViolations is the violated soft-constraint weight.
	ObjectiveViolations int `json:"objective_violations,omitempty"`
	// Violations lists policies the simulator still finds violated
	// (empty in normal operation).
	Violations []string `json:"violations,omitempty"`
	// Instances describes each per-destination instance.
	Instances []Instance `json:"instances"`
	// Solver totals the SAT-solver counters for work done in this call.
	Solver Solver `json:"solver"`
}

// Instance is the wire form of core.InstanceStats.
type Instance struct {
	Destination string  `json:"destination"`
	Sat         bool    `json:"sat"`
	Policies    int     `json:"policies"`
	Iterations  int     `json:"iterations"`
	DurationMS  float64 `json:"duration_ms"`
	Cached      bool    `json:"cached,omitempty"`
	Rebound     bool    `json:"rebound,omitempty"`
	Slow        bool    `json:"slow,omitempty"`
}

// Solver is the wire form of the network-wide sat.Stats totals.
type Solver struct {
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Conflicts    int64 `json:"conflicts"`
	Restarts     int64 `json:"restarts"`
	Learned      int64 `json:"learned"`
}

// Cached counts instances served from the session fingerprint cache.
func (r *Response) Cached() int { return r.countInstances(func(i Instance) bool { return i.Cached }) }

// Rebound counts instances re-solved live (tier-2).
func (r *Response) Rebound() int { return r.countInstances(func(i Instance) bool { return i.Rebound }) }

func (r *Response) countInstances(f func(Instance) bool) int {
	n := 0
	for _, in := range r.Instances {
		if f(in) {
			n++
		}
	}
	return n
}

// FromResult converts a satisfiable core.Result into its wire form.
// Call (*Result).Unsat first: unsatisfiable results travel as errors,
// not responses.
func FromResult(res *core.Result) *Response {
	out := &Response{
		DurationMS:          float64(res.Duration.Microseconds()) / 1000,
		SolveTimeMS:         float64(res.SolveTime.Microseconds()) / 1000,
		ObjectiveViolations: res.ObjectiveViolations,
		Instances:           make([]Instance, 0, len(res.Instances)),
		Solver: Solver{
			Decisions:    res.Solver.Decisions,
			Propagations: res.Solver.Propagations,
			Conflicts:    res.Solver.Conflicts,
			Restarts:     res.Solver.Restarts,
			Learned:      res.Solver.Learned,
		},
	}
	if res.Updated != nil {
		out.Configs = config.PrintNetwork(res.Updated)
	}
	var edits []string
	for _, e := range res.Edits {
		edits = append(edits, e.String())
	}
	sort.Strings(edits)
	out.Edits = edits
	if res.Diff != nil {
		out.DevicesChanged = res.Diff.DevicesChanged
		out.LinesAdded = res.Diff.LinesAdded
		out.LinesRemoved = res.Diff.LinesRemoved
	}
	for _, v := range res.Violations {
		out.Violations = append(out.Violations, v.String())
	}
	for _, in := range res.Instances {
		out.Instances = append(out.Instances, Instance{
			Destination: in.Destination.String(), Sat: in.Sat,
			Policies: in.Policies, Iterations: in.Iterations,
			DurationMS: float64(in.Duration.Microseconds()) / 1000,
			Cached:     in.Cached, Rebound: in.Rebound, Slow: in.Slow,
		})
	}
	return out
}

// FormatTopology renders a topology in the line format Request.Topology
// expects (the inverse of topology.ParseText).
func FormatTopology(t *topology.Topology) string {
	var b strings.Builder
	for _, r := range t.Routers {
		if role := t.Role[r]; role != "" {
			fmt.Fprintf(&b, "router %s %s\n", r, role)
		} else {
			fmt.Fprintf(&b, "router %s\n", r)
		}
	}
	for _, l := range t.Links() {
		fmt.Fprintf(&b, "link %s %s\n", l[0], l[1])
	}
	for _, s := range t.Subnets {
		fmt.Fprintf(&b, "subnet %s %s\n", s.Router, s.Prefix)
	}
	return b.String()
}

// SameTopology reports whether two topologies are structurally equal
// (routers, roles, links, subnets) — the test the service and the aed
// -watch loop use to decide whether a session survives a reload.
func SameTopology(a, b *topology.Topology) bool {
	return FormatTopology(a) == FormatTopology(b)
}
