package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/simulate"
	"github.com/aed-net/aed/internal/topology"
)

// TestSessionObjectivesKeepNoLiveInstance: a session with objectives
// can never rebind (see keepsLive), so it must not keep the encoders
// of its solved instances.
func TestSessionObjectivesKeepNoLiveInstance(t *testing.T) {
	eng, ps, _ := sessionFixture(t)
	eng.opts.Objectives = minDevices(t)
	if _, err := eng.Solve(context.Background(), ps); err != nil {
		t.Fatal(err)
	}
	if len(eng.cache) == 0 {
		t.Fatal("solve cached nothing")
	}
	for d, e := range eng.cache {
		if e.enc != nil {
			t.Errorf("%v: live encoder kept in a session with objectives", d)
		}
	}
}

// liveSession is one engine driven through a script of operator edits
// on a 3-leaf/2-spine BGP fabric. Each spine filters the routes it
// receives from every leaf through rf_edit, one rule per leaf subnet;
// an unattached anchor filter pins local preferences 110 and 120 into
// the lp domain, so an edit among unset, 110 and 120 keeps the shared
// fingerprint and is a tier-2 rebind candidate. Every rule starts as a
// permit with local preference 110, so 120 and unset are values a live
// instance first sees after it was parked.
type liveSession struct {
	t      *testing.T
	eng    *Engine
	topo   *topology.Topology
	opts   Options
	base   []policy.Policy
	extras []policy.Policy
	on     []bool // which extras are currently asserted
	// rebound counts instances served by tier 2 so far.
	rebound int
}

var liveSpines = []string{"spine0", "spine1"}

// liveLPs are the local preferences an lp edit picks from (0 = unset).
var liveLPs = []int{0, 110, 120}

func newLiveSession(t *testing.T) *liveSession {
	t.Helper()
	topo := topology.LeafSpine(3, 2, 1)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.BGP, WithRoleFilters: true})
	for _, s := range liveSpines {
		r := net.Routers[s]
		edit := &config.RouteFilter{Name: "rf_edit"}
		for _, leaf := range []string{"leaf0", "leaf1", "leaf2"} {
			edit.Rules = append(edit.Rules, &config.RouteRule{
				Permit: true, Prefix: topo.SubnetsOf(leaf)[0], LocalPref: 110,
			})
			r.Process(config.BGP).Adjacency(leaf).InFilter = "rf_edit"
		}
		r.RouteFilters = append(r.RouteFilters, edit, &config.RouteFilter{
			Name: "rf_anchor", Rules: []*config.RouteRule{
				{Permit: true, Prefix: prefix.MustParse("10.9.0.0/24"), LocalPref: 110},
				{Permit: true, Prefix: prefix.MustParse("10.9.0.0/24"), LocalPref: 120},
			},
		})
	}
	base, err := policy.Parse(`reach 10.0.0.0/24 -> 10.1.0.0/24
reach 10.2.0.0/24 -> 10.1.0.0/24
reach 10.1.0.0/24 -> 10.0.0.0/24
block 10.1.0.0/24 -> 10.2.0.0/24
`)
	if err != nil {
		t.Fatal(err)
	}
	extras, err := policy.Parse(`block 10.0.0.0/24 -> 10.2.0.0/24
block 10.2.0.0/24 -> 10.0.0.0/24
`)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Sequential = true
	opts.MinimizeLines = true
	return &liveSession{
		t: t, eng: NewEngine(net, topo, opts), topo: topo, opts: opts,
		base: base, extras: extras, on: make([]bool, len(extras)),
	}
}

// policies returns the base policies plus the extras switched on.
func (s *liveSession) policies() []policy.Policy {
	ps := append([]policy.Policy(nil), s.base...)
	for i, p := range s.extras {
		if s.on[i] {
			ps = append(ps, p)
		}
	}
	return ps
}

// step applies the operation op encodes — op%4 picks a local-preference
// edit, a permit flip, a blocking-policy toggle or a resubmit, op/4 its
// target — solves the session, and checks the result against a cold
// synthesis of the same inputs and against the simulator.
func (s *liveSession) step(op byte) {
	t := s.t
	t.Helper()
	arg := int(op / 4)
	rule := func() *config.RouteRule {
		next := s.eng.Network().Clone()
		s.eng.SetNetwork(next)
		f := next.Routers[liveSpines[arg%2]].RouteFilter("rf_edit")
		return f.Rules[(arg/2)%len(f.Rules)]
	}
	switch op % 4 {
	case 0:
		rule().LocalPref = liveLPs[(arg/6)%len(liveLPs)]
	case 1:
		r := rule()
		r.Permit = !r.Permit
	case 2:
		k := arg % len(s.extras)
		s.on[k] = !s.on[k]
	}

	ctx := context.Background()
	net, ps := s.eng.Network(), s.policies()
	got, err := s.eng.Solve(ctx, ps)
	if err != nil {
		t.Fatalf("op %d: session solve: %v", op, err)
	}
	want, err := SynthesizeContext(ctx, net, s.topo, ps, s.opts)
	if err != nil {
		t.Fatalf("op %d: cold solve: %v", op, err)
	}
	for _, in := range got.Instances {
		if in.Rebound {
			s.rebound++
		}
	}
	if (got.Unsat() == nil) != (want.Unsat() == nil) {
		t.Fatalf("op %d: session unsat=%v, cold unsat=%v", op, got.Unsat(), want.Unsat())
	}
	if want.Unsat() != nil {
		return
	}
	if got.ObjectiveViolations != want.ObjectiveViolations {
		t.Fatalf("op %d: session cost %d, cold cost %d", op, got.ObjectiveViolations, want.ObjectiveViolations)
	}
	for _, v := range simulate.New(got.Updated, s.topo).CheckAll(ps) {
		t.Fatalf("op %d: session patch violates %v", op, v)
	}
}

// TestParkedRebindMatchesCold drives one live session through a seeded
// sequence of local-preference edits (including values first seen after
// the instance was parked), permit flips, blocking-policy toggles and
// resubmits; every step must agree with a cold synthesis in verdict and
// objective cost, and every patch must pass the simulator.
func TestParkedRebindMatchesCold(t *testing.T) {
	s := newLiveSession(t)
	s.step(3) // prime: every instance solves cold and is parked
	rng := rand.New(rand.NewSource(20261017))
	for i := 0; i < 40; i++ {
		s.step(byte(rng.Intn(256)))
	}
	if s.rebound == 0 {
		t.Fatal("no step was served by a parked live instance")
	}
}

// FuzzSession is TestParkedRebindMatchesCold over fuzzer-chosen
// operation sequences: each input byte is one step.
func FuzzSession(f *testing.F) {
	f.Add([]byte{0, 48, 1, 3})       // lp unset, lp 120, permit flip, resubmit
	f.Add([]byte{2, 0, 6, 49, 5, 3}) // both block toggles around lp and both spines' leaf0 flips
	f.Add([]byte{1, 1, 60, 2})       // flip and restore, lp 120 on spine1's leaf1 rule, block toggle
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 8 {
			ops = ops[:8] // each step runs a cold oracle solve
		}
		s := newLiveSession(t)
		s.step(3)
		for _, op := range ops {
			s.step(op)
		}
	})
}
