package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/encode"
	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/simulate"
	"github.com/aed-net/aed/internal/smt"
	"github.com/aed-net/aed/internal/topology"
)

// sessionInputs is a fabric parsed into the program's types, one
// network per local-preference value and one policy set per extra-block
// state.
type sessionInputs struct {
	fab  fabric
	nets [2]*config.Network
	topo *topology.Topology
	ps   [][]policy.Policy
	want map[int]expect // by sessionState.key
}

// sessionOptions are the options of every session solve: the paper
// defaults plus the exact min-lines objective, as in the resolve
// experiment, so the oracle has a cost to check. Objectives proper
// would disable the tier-2 rebind.
var sessionOptions = core.Options{MinimizeLines: true}

func parseFabric(fab fabric) (*sessionInputs, error) {
	in := &sessionInputs{fab: fab}
	var err error
	for i, cfg := range fab.Configs {
		if in.nets[i], err = config.ParseNetwork(cfg); err != nil {
			return nil, fmt.Errorf("configs: %w", err)
		}
	}
	if in.topo, err = topology.ParseText("fabric", fab.Topology); err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	for _, text := range fab.Policies {
		ps, err := policy.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("policies: %w", err)
		}
		in.ps = append(in.ps, ps)
	}
	return in, nil
}

// prepareOracle solves every state of the script's state space once.
func (in *sessionInputs) prepareOracle(ctx context.Context) error {
	in.want = make(map[int]expect)
	for _, st := range allStates() {
		p := parsed{net: in.nets[st.LP], topo: in.topo, ps: in.ps[st.Extra]}
		want, err := oracle(ctx, p, sessionOptions)
		if err != nil {
			return fmt.Errorf("state %+v: %w", st, err)
		}
		in.want[st.key()] = want
	}
	return nil
}

// editStream is one long-lived session engine fed a seeded edit script.
type editStream struct {
	*sessionInputs
	eng    *core.Engine
	prime  *core.Result
	script *script
	// shadow is a live encoder for editFilterDest, kept beside the
	// engine in the traced phase so Rebind and ReSolveContext can be
	// timed on the same edits the engine rebinds.
	shadow *encode.Encoder
}

func newEditStream(ctx context.Context, seed int64, leaves, spines int) (*editStream, error) {
	rng := rand.New(rand.NewSource(seed))
	in, err := parseFabric(newFabric(leaves, spines))
	if err != nil {
		return nil, err
	}
	w := &editStream{
		sessionInputs: in,
		eng:           core.NewEngine(in.nets[0], in.topo, sessionOptions),
		script:        newScript(rng.Int63(), editDeck),
	}
	if w.prime, err = w.eng.Solve(ctx, in.ps[0]); err != nil {
		return nil, fmt.Errorf("priming solve: %w", err)
	}
	return w, nil
}

func (w *editStream) prepareOracle(ctx context.Context) error {
	if err := w.sessionInputs.prepareOracle(ctx); err != nil {
		return err
	}
	if err := checkResult(w.want[sessionState{}.key()], w.prime); err != nil {
		return fmt.Errorf("priming solve: %w", err)
	}
	return nil
}

func (w *editStream) clients() int { return 1 }
func (w *editStream) close()       {}

func (w *editStream) runBatch(ctx context.Context, _ int, ph *phase) {
	for range editDeck {
		_, st := w.script.next()
		if ph.traced() {
			w.tracedStep(ctx, st, ph)
			continue
		}
		start := time.Now()
		w.eng.SetNetwork(w.nets[st.LP])
		res, err := w.eng.Solve(ctx, w.ps[st.Extra])
		d := time.Since(start)
		if err == nil {
			err = checkResult(w.want[st.key()], res)
			recordResult(ph, res)
		}
		ph.op(d, err)
	}
}

// tracedStep times Engine.Solve as a whole, then repeats on the step's
// own inputs every layer call that can be made from outside the engine:
// apply, diff and validate on the result, a rebind of the shadow
// encoder when the engine rebound, and a fresh encode of each
// destination the engine re-encoded. The engine time no measured layer
// explains is reported as core.session_other_ms.
func (w *editStream) tracedStep(ctx context.Context, st sessionState, ph *phase) {
	net, ps := w.nets[st.LP], w.ps[st.Extra]
	if w.shadow == nil {
		var err error
		if w.shadow, err = solvedEncoder(ctx, net, w.topo, ps, editFilterDest); err != nil {
			ph.op(0, err)
			return
		}
	}
	root := ph.tr.Start(rootSpan)
	defer root.End()
	var res *core.Result
	var err error
	start := time.Now()
	engineMS := timed(root, "core.engine_solve", func() {
		w.eng.SetNetwork(net)
		res, err = w.eng.Solve(ctx, ps)
	})
	d := time.Since(start)
	if err != nil {
		ph.op(d, err)
		return
	}
	if err := checkResult(w.want[st.key()], res); err != nil {
		ph.op(d, err)
		return
	}
	var updated *config.Network
	layersMS := ms(res.SolveTime)
	ph.add("smt.maxsat_ms", layersMS)
	layersMS += timed(root, "encode.apply", func() { updated = encode.Apply(net, res.Edits) })
	checkMS, _ := diffValidate(root, ph, net, updated, w.topo, ps)
	layersMS += checkMS

	groups := policy.GroupByDestination(policy.SubdividePolicies(policy.Dedup(ps)))
	for _, in := range res.Instances {
		if err != nil {
			break
		}
		switch {
		case in.Cached:
		case in.Rebound:
			var rebindMS float64
			rebindMS, err = w.shadowRebind(ctx, root, ph, net, in.Destination)
			layersMS += rebindMS
		default:
			layersMS += timed(root, "encode.build", func() {
				e := encode.New(net, w.topo, in.Destination, encode.Options{})
				if err = e.EncodePolicies(groups[in.Destination]); err != nil {
					return
				}
				e.PenalizeDeltas(1)
				hits, misses := e.Ctx.InternStats()
				ph.add("intern_hits", float64(hits))
				ph.add("intern_lookups", float64(hits+misses))
			})
		}
	}
	ph.add("core.session_other_ms", engineMS-layersMS)
	ph.op(d, err)
}

// shadowRebind times Rebind on the shadow encoder for the edit the
// engine just rebound, then ReSolveContext, and returns the Rebind time
// (the engine reports its re-solve in Result.SolveTime).
func (w *editStream) shadowRebind(ctx context.Context, root *obs.Span, ph *phase,
	net *config.Network, d prefix.Prefix) (float64, error) {
	if !d.Equal(editFilterDest) {
		return 0, fmt.Errorf("destination %s rebound, want only %s", d, editFilterDest)
	}
	var swapped int
	var ok bool
	rebindMS := timed(root, "encode.rebind", func() { swapped, ok = w.shadow.Rebind(net) })
	if !ok {
		return rebindMS, fmt.Errorf("shadow encoder for %s cannot rebind", d)
	}
	timed(root, "encode.resolve", func() { w.shadow.ReSolveContext(ctx, smt.LinearDescent) })
	ph.add("encode.bindings_swapped", float64(swapped))
	return rebindMS, nil
}

// diffValidate repeats the engine's diff and simulator check of an
// updated network, one span each, and returns their time and the
// number of violations the simulator finds.
func diffValidate(root *obs.Span, ph *phase, before, after *config.Network, topo *topology.Topology,
	ps []policy.Policy) (float64, int) {
	diffMS := timed(root, "config.diff", func() { config.Diff(before, after) })
	checked := policy.SubdividePolicies(policy.Dedup(ps))
	violations := 0
	validateMS := timed(root, "simulate.validate", func() {
		violations = len(simulate.New(after, topo).CheckAll(checked))
	})
	ph.add("simulate.policies", float64(len(checked)))
	return diffMS + validateMS, violations
}

// solvedEncoder encodes and solves one destination the way a session
// does, leaving a live instance that can be rebound.
func solvedEncoder(ctx context.Context, net *config.Network, topo *topology.Topology,
	ps []policy.Policy, d prefix.Prefix) (*encode.Encoder, error) {
	groups := policy.GroupByDestination(policy.SubdividePolicies(policy.Dedup(ps)))
	e := encode.New(net, topo, d, encode.Options{})
	if err := e.EncodePolicies(groups[d]); err != nil {
		return nil, err
	}
	e.PenalizeDeltas(1)
	if r := e.SolveContext(ctx, smt.LinearDescent); r.Err != nil || !r.Sat {
		return nil, fmt.Errorf("shadow solve for %s: sat=%v err=%v", d, r.Sat, r.Err)
	}
	return e, nil
}
