package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/encode"
	"github.com/aed-net/aed/internal/objective"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/sat"
	"github.com/aed-net/aed/internal/simulate"
	"github.com/aed-net/aed/internal/topology"
)

// TestSynthesizeRandomized is the end-to-end soundness property: on
// random topologies with random policy mixes, whenever Synthesize
// reports Sat the updated configurations must satisfy every policy
// under the independent simulator — no model/simulator divergence, no
// cross-instance conflicts from parallel per-destination solving.
func TestSynthesizeRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(2026))
	objLib := []string{"", "min-devices", "preserve-templates", "min-pfs"}
	for iter := 0; iter < 25; iter++ {
		// Random topology family.
		var topo *topology.Topology
		switch rng.Intn(3) {
		case 0:
			topo = topology.LeafSpine(2+rng.Intn(3), 1+rng.Intn(2), 1)
		case 1:
			topo = topology.Zoo(5+rng.Intn(6), int64(iter))
		default:
			topo = topology.Line(3 + rng.Intn(3))
		}
		proto := config.OSPF
		if rng.Intn(2) == 0 {
			proto = config.BGP
		}
		net := configgen.Generate(topo, configgen.Options{
			Protocol:        proto,
			WithRoleFilters: rng.Intn(2) == 0,
			Seed:            int64(iter),
		})
		sim := simulate.New(net, topo)
		base := sim.InferReachability()
		if len(base) < 2 {
			continue
		}

		// Random policy mix: flip some reach policies to blocking,
		// add a waypoint when the topology offers a transit choice.
		rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })
		nBlock := 1 + rng.Intn(2)
		var ps []policy.Policy
		for i, p := range base {
			if i < nBlock {
				ps = append(ps, policy.Policy{Kind: policy.Blocking, Src: p.Src, Dst: p.Dst})
			} else {
				ps = append(ps, p)
			}
		}

		opts := DefaultOptions()
		opts.MinimizeLines = rng.Intn(2) == 0
		if name := objLib[rng.Intn(len(objLib))]; name != "" {
			objs, err := objective.Named(name)
			if err != nil {
				t.Fatal(err)
			}
			opts.Objectives = objs
		}
		if rng.Intn(4) == 0 {
			opts.Monolithic = true
		}

		res, err := SynthesizeContext(context.Background(), net, topo, ps, opts)
		if err != nil {
			t.Fatalf("iter %d (%s): %v", iter, topo.Name, err)
		}
		if res.Unsat() != nil {
			// Blocking+reach mixes are always implementable on these
			// workloads (the blocked pairs were removed from base).
			t.Fatalf("iter %d (%s): unexpected unsat: %v", iter, topo.Name, res.Unsat())
		}
		if len(res.Violations) != 0 {
			t.Fatalf("iter %d (%s, monolithic=%v): violations after synthesis: %v",
				iter, topo.Name, opts.Monolithic, res.Violations)
		}
		// The original network object must not have been mutated.
		if d := config.Diff(net, net.Clone()); d.LinesChanged() != 0 {
			t.Fatalf("iter %d: input network mutated", iter)
		}
	}
}

// TestSynthesizeIdempotent: running AED on its own output with the
// same policies must require no further edits.
func TestSynthesizeIdempotent(t *testing.T) {
	topo := topology.LeafSpine(3, 2, 1)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF, WithRoleFilters: true})
	sim := simulate.New(net, topo)
	base := sim.InferReachability()
	ps := append([]policy.Policy{
		{Kind: policy.Blocking, Src: base[0].Src, Dst: base[0].Dst},
	}, RemoveFromBase(base, base[0])...)

	opts := MinLinesOptions(DefaultOptions())
	res1, err := SynthesizeContext(context.Background(), net, topo, ps, opts)
	if err != nil || res1.Unsat() != nil || len(res1.Violations) != 0 {
		t.Fatalf("first run failed: %v", err)
	}
	res2, err := SynthesizeContext(context.Background(), res1.Updated, topo, ps, opts)
	if err != nil || res2.Unsat() != nil {
		t.Fatalf("second run failed: %v", err)
	}
	if res2.Diff.LinesChanged() != 0 {
		t.Errorf("second run should be a no-op, changed %d lines: %v",
			res2.Diff.LinesChanged(), res2.Edits)
	}
}

// RemoveFromBase filters one policy's traffic class out of a base set.
func RemoveFromBase(base []policy.Policy, gone policy.Policy) []policy.Policy {
	var out []policy.Policy
	for _, p := range base {
		if p.Src.Equal(gone.Src) && p.Dst.Equal(gone.Dst) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// TestSessionRandomPolicyEdits is the session counterpart of
// TestSynthesizeRandomized: on random topologies and protocols, one
// session follows a random walk over a pool of policies of every kind,
// switching a few on or off per step, so live instances retract and
// reassert policies (tier 2) or re-encode to take policies new to
// them (tier 3). Every step must agree with a cold synthesis in
// verdict and objective cost, and every patch must pass the simulator.
func TestSessionRandomPolicyEdits(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	retargeted := 0
	for iter := 0; iter < 25; iter++ {
		rng, topo, net, pool := randomPolicyNetwork(iter)
		on := make([]bool, len(pool))
		for i := range on {
			on[i] = rng.Intn(8) == 0
		}
		opts := DefaultOptions()
		opts.Sequential = true
		opts.MinimizeLines = true
		eng := NewEngine(net, topo, opts)
		ctx := context.Background()
		for step := 0; step < 6; step++ {
			var ps []policy.Policy
			for i, p := range pool {
				if on[i] {
					ps = append(ps, p)
				}
			}
			if len(ps) > 0 {
				got, err := eng.Solve(ctx, ps)
				if err != nil {
					t.Fatalf("iter %d step %d (%s): session solve: %v", iter, step, topo.Name, err)
				}
				want, err := SynthesizeContext(ctx, net, topo, ps, opts)
				if err != nil {
					t.Fatalf("iter %d step %d (%s): cold solve: %v", iter, step, topo.Name, err)
				}
				for _, in := range got.Instances {
					if in.Retargeted {
						retargeted++
					}
				}
				if (got.Unsat() == nil) != (want.Unsat() == nil) {
					t.Fatalf("iter %d step %d (%s): session unsat=%v, cold unsat=%v",
						iter, step, topo.Name, got.Unsat(), want.Unsat())
				}
				if want.Unsat() == nil {
					if got.ObjectiveViolations != want.ObjectiveViolations {
						t.Fatalf("iter %d step %d (%s): session cost %d, cold cost %d",
							iter, step, topo.Name, got.ObjectiveViolations, want.ObjectiveViolations)
					}
					for _, v := range simulate.New(got.Updated, topo).CheckAll(ps) {
						t.Fatalf("iter %d step %d (%s): session patch violates %v", iter, step, topo.Name, v)
					}
				}
			}
			for k := 0; k < 1+rng.Intn(3); k++ {
				i := rng.Intn(len(on))
				on[i] = !on[i]
			}
		}
	}
	if retargeted == 0 {
		t.Fatal("no step was retargeted on a live instance")
	}
}

// randomPolicyNetwork generates the iter-th random network of the
// session property tests: a random topology and protocol, and a pool of
// policies of every kind between its subnets. It returns the generator's
// rng for the test's further draws.
func randomPolicyNetwork(iter int) (*rand.Rand, *topology.Topology, *config.Network, []policy.Policy) {
	rng := rand.New(rand.NewSource(int64(iter) * 7919))
	var topo *topology.Topology
	switch rng.Intn(3) {
	case 0:
		topo = topology.LeafSpine(3+rng.Intn(2), 1+rng.Intn(2), 1)
	case 1:
		topo = topology.Zoo(5+rng.Intn(5), int64(iter))
	default:
		topo = topology.Line(3 + rng.Intn(3))
	}
	proto := config.OSPF
	if rng.Intn(2) == 0 {
		proto = config.BGP
	}
	net := configgen.Generate(topo, configgen.Options{
		Protocol: proto, WithRoleFilters: rng.Intn(2) == 0, Seed: int64(iter),
	})
	var pool []policy.Policy
	for _, a := range topo.Subnets {
		for _, b := range topo.Subnets {
			if a.Prefix.Equal(b.Prefix) {
				continue
			}
			via := topo.Routers[rng.Intn(len(topo.Routers))]
			avoid := topo.Routers[rng.Intn(len(topo.Routers))]
			pool = append(pool,
				policy.Policy{Kind: policy.Reachability, Src: a.Prefix, Dst: b.Prefix},
				policy.Policy{Kind: policy.Blocking, Src: a.Prefix, Dst: b.Prefix},
				policy.Policy{Kind: policy.Isolation, Src: a.Prefix, Dst: b.Prefix},
				policy.Policy{Kind: policy.Waypoint, Src: a.Prefix, Dst: b.Prefix, Via: via},
				policy.Policy{Kind: policy.PathLength, Src: a.Prefix, Dst: b.Prefix, MaxLen: 2 + rng.Intn(3)})
			if avoid != via {
				pool = append(pool, policy.Policy{Kind: policy.PathPreference,
					Src: a.Prefix, Dst: b.Prefix, Via: via, Avoid: avoid})
			}
		}
	}
	return rng, topo, net, pool
}

// TestOneShotMatchesFirstSessionSolve is the exact oracle for the
// per-destination loop that one-shot synthesis and sessions share: on
// the networks of TestSessionRandomPolicyEdits, with min-lines and with
// objectives, SynthesizeContext and the first Solve of a session that
// keeps no live instance return the same outcome — edits, per-instance
// sizes and search counters, unsat destinations and their conflicts,
// cost and residual violations — and so does each destination encoded
// and solved through package encode directly, outside the worker and
// the merge.
func TestOneShotMatchesFirstSessionSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	objs, err := objective.Named("min-devices")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	unsat := 0
	for iter := 0; iter < 25; iter++ {
		rng, topo, net, pool := randomPolicyNetwork(iter)
		var ps []policy.Policy
		for _, p := range pool {
			if rng.Intn(8) == 0 {
				ps = append(ps, p)
			}
		}
		if len(ps) == 0 {
			continue
		}
		for _, opts := range []Options{
			{Sequential: true, MinimizeLines: true, Explain: true, NoLiveInstances: true},
			{Objectives: objs, Explain: true},
		} {
			oneShot, err := SynthesizeContext(ctx, net, topo, ps, opts)
			if err != nil {
				t.Fatalf("iter %d (%s): one-shot: %v", iter, topo.Name, err)
			}
			first, err := NewEngine(net, topo, opts).Solve(ctx, ps)
			if err != nil {
				t.Fatalf("iter %d (%s): session: %v", iter, topo.Name, err)
			}
			want := outcomeOf(oneShot)
			if got := outcomeOf(first); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d (%s, objectives %v): first session solve\n%+v\none-shot\n%+v",
					iter, topo.Name, len(opts.Objectives) > 0, got, want)
			}
			if got := directOutcome(t, net, topo, ps, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d (%s, objectives %v): direct encode\n%+v\none-shot\n%+v",
					iter, topo.Name, len(opts.Objectives) > 0, got, want)
			}
			if oneShot.Unsat() != nil {
				unsat++
			}
		}
	}
	if unsat == 0 {
		t.Fatal("no call was unsat: conflicts went unchecked")
	}
}

// outcome is the part of a synthesis Result that does not depend on
// timing: Duration, SolveTime and the Slow flags are left out.
type outcome struct {
	Edits      []string // sorted
	Cost       int
	Instances  []instanceOutcome
	Unsat      []prefix.Prefix
	Conflicts  map[prefix.Prefix][]policy.Policy
	Violations []simulate.Violation
}

type instanceOutcome struct {
	Dest                             prefix.Prefix
	Policies, Vars, Clauses, Deltas  int
	Iterations                       int
	Sat, Cached, Rebound, Retargeted bool
	Solver                           sat.Stats
}

func outcomeOf(res *Result) outcome {
	o := outcome{Edits: sortedEdits(res.Edits), Cost: res.ObjectiveViolations, Violations: res.Violations}
	for _, is := range res.Instances {
		o.Instances = append(o.Instances, instanceOutcome{is.Destination, is.Policies,
			is.NumVars, is.NumClauses, is.NumDeltas, is.Iterations,
			is.Sat, is.Cached, is.Rebound, is.Retargeted, is.Solver})
	}
	if u := res.Unsat(); u != nil {
		o.Unsat, o.Conflicts = u.Destinations, u.Conflicts
	}
	return o
}

// directOutcome solves each destination group of ps through package
// encode alone, in destination order, and merges the results by hand.
func directOutcome(t *testing.T, net *config.Network, topo *topology.Topology, ps []policy.Policy, opts Options) outcome {
	t.Helper()
	ps, groups, dests := groupDests(ps)
	var o outcome
	var edits []encode.Edit
	for _, d := range dests {
		e := encode.New(net, topo, d, opts.Encode)
		if err := e.EncodePolicies(groups[d]); err != nil {
			t.Fatal(err)
		}
		e.AddObjectives(instantiateObjectives(net, opts.Objectives, e.Deltas()))
		if opts.MinimizeLines {
			e.PenalizeDeltas(1)
		}
		r := e.SolveContext(context.Background(), opts.Strategy)
		o.Instances = append(o.Instances, instanceOutcome{Dest: d, Policies: len(groups[d]),
			Vars: r.NumVars, Clauses: r.NumClauses, Deltas: r.NumDeltas, Iterations: r.Iterations,
			Sat: r.Sat, Solver: r.Stats})
		if !r.Sat {
			o.Unsat = append(o.Unsat, d)
			if conflict, _ := encode.New(net, topo, d, opts.Encode).ExplainConflict(groups[d]); len(conflict) > 0 {
				if o.Conflicts == nil {
					o.Conflicts = map[prefix.Prefix][]policy.Policy{}
				}
				o.Conflicts[d] = conflict
			}
			continue
		}
		edits = append(edits, r.Edits...)
		o.Cost += r.ViolatedWeight
	}
	o.Edits = sortedEdits(edits)
	if o.Unsat == nil {
		o.Violations = simulate.New(encode.Apply(net, edits), topo).CheckAll(ps)
	}
	return o
}

func sortedEdits(edits []encode.Edit) []string {
	edits = slices.Clone(edits)
	SortEdits(edits)
	out := make([]string, len(edits))
	for i, e := range edits {
		out[i] = e.String()
	}
	return out
}
