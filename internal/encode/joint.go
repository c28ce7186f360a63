package encode

import (
	"context"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/objective"
	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/sat"
	"github.com/aed-net/aed/internal/smt"
	"github.com/aed-net/aed/internal/topology"
)

// Joint encodes several destination groups in a single MaxSMT problem
// — the paper's unsplit formulation (§6.2): per-prefix copies of the
// routing-model variables and constraints, with structural delta
// variables shared across all copies, so one globally optimal update
// is computed. The per-destination Encoder instances share this
// Joint's SMT context and delta registry.
type Joint struct {
	Ctx      *smt.Context
	net      *config.Network
	topo     *topology.Topology
	opts     Options
	reg      *registry
	encoders []*Encoder
	span     *obs.Span
}

// Observe attaches telemetry to the joint instance, mirroring
// (*Encoder).Observe.
func (j *Joint) Observe(span *obs.Span, reg *obs.Registry) {
	j.span = span
	j.Ctx.Observe(reg, span)
}

// NewJoint prepares a monolithic encoder. Its copies are joint (see
// Encoder.joint): broad deltas are consistently modeled across every
// destination copy, so the split-mode suppression is unnecessary.
func NewJoint(net *config.Network, topo *topology.Topology, opts Options) *Joint {
	return &Joint{
		Ctx:  smt.NewContext(),
		net:  net,
		topo: topo,
		opts: opts,
		reg:  nil,
	}
}

// AddGroup encodes one destination group into the shared problem.
func (j *Joint) AddGroup(dst prefix.Prefix, ps []policy.Policy) error {
	e := &Encoder{
		Ctx:          j.Ctx,
		net:          j.net,
		topo:         j.topo,
		opts:         j.opts,
		reg:          j.sharedRegistry(),
		dst:          dst,
		dstRouter:    j.topo.RouterOfSubnet(dst),
		envs:         make(map[string]*env),
		adjSide:      make(map[adjKey]sat.Lit),
		pfAllowCache: make(map[hopKey]sat.Lit),
		pfChainCache: make(map[pfChainKey]sat.Lit),
		rfChainCache: make(map[rfChainKey]rfChain),
		maxCost:      costBound(j.net),
		joint:        true,
	}
	e.lpDomain = e.buildLPDomain()
	// Distinguish per-destination control-plane variable names by
	// tagging the environment suffix via the destination; variable
	// names are only debug labels, so collisions are harmless, but the
	// delta registry sharing is what matters.
	j.encoders = append(j.encoders, e)
	return e.EncodePolicies(ps)
}

func (j *Joint) sharedRegistry() *registry {
	if j.reg == nil {
		j.reg = newRegistry(j.Ctx)
	}
	return j.reg
}

// Deltas returns the shared delta variables.
func (j *Joint) Deltas() []*Delta {
	if j.reg == nil {
		return nil
	}
	return j.reg.all()
}

// AddObjectives translates instances into soft constraints over the
// shared deltas.
func (j *Joint) AddObjectives(insts []objective.Instance) {
	if len(j.encoders) == 0 {
		return
	}
	// Any encoder can do the translation: they share the registry.
	j.encoders[len(j.encoders)-1].AddObjectives(insts)
}

// PenalizeDeltas adds a unit-weight soft constraint against every
// shared delta (the min-lines objective in joint mode).
func (j *Joint) PenalizeDeltas(weight int) {
	if len(j.encoders) == 0 {
		return
	}
	j.encoders[len(j.encoders)-1].PenalizeDeltas(weight)
}

// Solve maximizes and extracts one consistent edit set.
func (j *Joint) Solve(strategy smt.Strategy) *Result {
	return j.SolveContext(context.Background(), strategy)
}

// SolveContext is Solve with cancellation: once ctx is canceled the
// underlying CDCL search stops at the next conflict and the result
// carries ctx's error in Result.Err.
func (j *Joint) SolveContext(ctx context.Context, strategy smt.Strategy) *Result {
	return solveInstrumented(ctx, j.Ctx, j.span, j.Deltas(), strategy)
}
