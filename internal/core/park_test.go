package core

import (
	"context"
	"maps"
	"math/rand"
	"slices"
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
// on a 4-leaf/2-spine BGP fabric. Each spine filters the routes it
// receives from every leaf through rf_edit, one rule per leaf subnet;
// an unattached anchor filter pins local preferences 110 and 120 into
// the lp domain, so an edit among unset, 110 and 120 keeps the shared
// fingerprint and is a tier-2 candidate. Every rule starts as a permit
// with local preference 110, so 120 and unset are values a live
// instance first sees after it was parked. No base policy mentions
// leaf3's subnet 10.3.0.0/24, so its traffic classes have no data plane
// in any instance until a policy edit adds one (and the re-encode it
// takes builds one). leaf1's packet filter (see newLiveSession) makes
// classes share deltas.
type liveSession struct {
	t    *testing.T
	eng  *Engine
	topo *topology.Topology
	opts Options
	// Each policy list is switched on and off by one kind of step.
	base, extras, fresh, prefer   []policy.Policy
	baseOn, on, freshOn, preferOn []bool
	// reversed submits the policies in reverse order: the same set.
	reversed bool
	// last holds, per destination, the policy set (by String) its
	// instance last solved, and seen the policies its live instance
	// has encoded since it was last encoded from scratch.
	last, seen map[prefix.Prefix]map[string]bool
	// rebound and retargeted count instances served by tier 2 so far.
	rebound, retargeted int
}

var liveSpines = []string{"spine0", "spine1"}

// liveLPs are the local preferences an lp edit picks from (0 = unset).
var liveLPs = []int{0, 110, 120}

func mustPolicies(t *testing.T, text string) []policy.Policy {
	t.Helper()
	ps, err := policy.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func newLiveSession(t *testing.T) *liveSession {
	t.Helper()
	topo := topology.LeafSpine(4, 2, 1)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.BGP, WithRoleFilters: true})
	for _, s := range liveSpines {
		r := net.Routers[s]
		edit := &config.RouteFilter{Name: "rf_edit"}
		for _, leaf := range []string{"leaf0", "leaf1", "leaf2", "leaf3"} {
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
	// leaf1 guards its subnet with one packet filter on both uplinks,
	// whose one rule denies every leaf's traffic: each reach policy
	// toward 10.1.0.0/24 needs the rule gone, and every traffic class
	// shares the rule's deltas.
	leaf1 := net.Routers["leaf1"]
	leaf1.PacketFilters = append(leaf1.PacketFilters, &config.PacketFilter{
		Name: "pf_guard", Rules: []*config.PacketRule{{
			Src: prefix.MustParse("10.0.0.0/14"), Dst: prefix.MustParse("10.1.0.0/24"),
		}},
	})
	for _, s := range liveSpines {
		leaf1.Interface("eth-" + s).FilterIn = "pf_guard"
	}
	s := &liveSession{
		t: t, topo: topo,
		base: mustPolicies(t, `reach 10.0.0.0/24 -> 10.1.0.0/24
reach 10.2.0.0/24 -> 10.1.0.0/24
reach 10.1.0.0/24 -> 10.0.0.0/24
block 10.1.0.0/24 -> 10.2.0.0/24
`),
		extras: mustPolicies(t, `block 10.0.0.0/24 -> 10.2.0.0/24
block 10.2.0.0/24 -> 10.0.0.0/24
`),
		// Policies no instance has seen, which its destination's first
		// toggle re-encodes and later toggles retract and reassert: the
		// first four on leaf3's classes, which no instance has built;
		// then one on a class an extra builds, one on a class the base
		// builds (in conflict with a base policy until that is
		// removed), and a waypoint on a base class whose on-path
		// variables no instance has built.
		fresh: mustPolicies(t, `reach 10.3.0.0/24 -> 10.1.0.0/24
block 10.3.0.0/24 -> 10.0.0.0/24
waypoint 10.3.0.0/24 -> 10.2.0.0/24 via spine0
maxlen 10.3.0.0/24 -> 10.1.0.0/24 <= 2
reach 10.0.0.0/24 -> 10.2.0.0/24
block 10.1.0.0/24 -> 10.0.0.0/24
waypoint 10.2.0.0/24 -> 10.1.0.0/24 via spine1
`),
		prefer: mustPolicies(t, `prefer 10.0.0.0/24 -> 10.1.0.0/24 via spine0 over spine1
prefer 10.2.0.0/24 -> 10.0.0.0/24 via spine1 over spine0
`),
		last: map[prefix.Prefix]map[string]bool{},
		seen: map[prefix.Prefix]map[string]bool{},
	}
	s.baseOn = make([]bool, len(s.base))
	for i := range s.baseOn {
		s.baseOn[i] = true
	}
	s.on = make([]bool, len(s.extras))
	s.freshOn = make([]bool, len(s.fresh))
	s.preferOn = make([]bool, len(s.prefer))
	s.opts = DefaultOptions()
	s.opts.Sequential = true
	s.opts.MinimizeLines = true
	s.eng = NewEngine(net, topo, s.opts)
	return s
}

// policies returns every policy switched on, in reverse order when
// reversed is set.
func (s *liveSession) policies() []policy.Policy {
	var ps []policy.Policy
	for _, list := range []struct {
		ps []policy.Policy
		on []bool
	}{{s.base, s.baseOn}, {s.extras, s.on}, {s.fresh, s.freshOn}, {s.prefer, s.preferOn}} {
		for i, p := range list.ps {
			if list.on[i] {
				ps = append(ps, p)
			}
		}
	}
	if s.reversed {
		slices.Reverse(ps)
	}
	return ps
}

// step applies the operation op encodes, solves the session, and checks
// the result against a cold synthesis of the same inputs and against
// the simulator, and each live instance's tier flag against its policy
// edit. op%8 picks the operation and op/8 its target: a
// local-preference edit, a permit flip, an extra blocking policy
// toggle, a resubmit, a fresh policy toggle, a base policy toggle, a
// path-preference toggle, or a reversal of the policy order.
func (s *liveSession) step(op byte) {
	t := s.t
	t.Helper()
	arg := int(op / 8)
	rule := func() *config.RouteRule {
		next := s.eng.Network().Clone()
		s.eng.SetNetwork(next)
		f := next.Routers[liveSpines[arg%2]].RouteFilter("rf_edit")
		return f.Rules[(arg/2)%len(f.Rules)]
	}
	toggle := func(on []bool) { k := arg % len(on); on[k] = !on[k] }
	switch op % 8 {
	case 0:
		rule().LocalPref = liveLPs[(arg/8)%len(liveLPs)]
	case 1:
		r := rule()
		r.Permit = !r.Permit
	case 2:
		toggle(s.on)
	case 4:
		toggle(s.freshOn)
	case 5:
		toggle(s.baseOn)
	case 6:
		toggle(s.preferOn)
	case 7:
		s.reversed = !s.reversed
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
	s.checkTiers(op, got, ps)
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

// checkTiers checks each instance's tier flags against its policy
// edit: an instance Rebound keeps the policy set it solved last, and
// one Retargeted has a different set made only of policies its live
// instance has encoded (a policy new to the instance, whatever its
// kind, is served by a re-encode).
func (s *liveSession) checkTiers(op byte, res *Result, ps []policy.Policy) {
	t := s.t
	t.Helper()
	_, groups, _ := groupDests(ps)
	for _, in := range res.Instances {
		d := in.Destination
		set := map[string]bool{}
		for _, p := range groups[d] {
			set[p.String()] = true
		}
		changed := !maps.Equal(set, s.last[d])
		switch {
		case in.Rebound && in.Retargeted, in.Cached && (in.Rebound || in.Retargeted):
			t.Fatalf("op %d: %v flagged cached=%v rebound=%v retargeted=%v",
				op, d, in.Cached, in.Rebound, in.Retargeted)
		case in.Rebound && changed:
			t.Fatalf("op %d: %v rebound across a policy edit", op, d)
		case in.Retargeted && !changed:
			t.Fatalf("op %d: %v retargeted under an unchanged policy set", op, d)
		}
		switch {
		case in.Rebound:
			s.rebound++
		case in.Retargeted:
			s.retargeted++
			for _, p := range groups[d] {
				if !s.seen[d][p.String()] {
					t.Fatalf("op %d: %v retargeted onto new %v", op, d, p)
				}
			}
		case !in.Cached:
			s.seen[d] = map[string]bool{}
		}
		maps.Copy(s.seen[d], set)
		s.last[d] = set
	}
}

// TestParkedRebindMatchesCold drives one live session through a seeded
// sequence of local-preference edits (including values first seen after
// the instance was parked), permit flips, policy additions, removals
// and reorderings, and resubmits; every step must agree with a cold
// synthesis in verdict and objective cost, every patch must pass the
// simulator, and both tier-2 kinds must have served some step.
func TestParkedRebindMatchesCold(t *testing.T) {
	s := newLiveSession(t)
	s.step(3) // prime: every instance solves cold and is parked
	rng := rand.New(rand.NewSource(20261017))
	for i := 0; i < 40; i++ {
		s.step(byte(rng.Intn(256)))
	}
	if s.rebound == 0 {
		t.Error("no step was rebound on a parked live instance")
	}
	if s.retargeted == 0 {
		t.Error("no step was retargeted on a parked live instance")
	}
}

// FuzzSession is TestParkedRebindMatchesCold over fuzzer-chosen
// operation sequences: each input byte is one step.
func FuzzSession(f *testing.F) {
	f.Add([]byte{0, 128, 1, 3})      // lp unset, lp 120, permit flip, resubmit
	f.Add([]byte{2, 0, 10, 1, 9, 3}) // both block toggles around lp and both spines' leaf0 flips
	f.Add([]byte{1, 1, 152, 2})      // flip and restore, lp 120 on spine1's leaf1 rule, block toggle
	f.Add([]byte{4, 12, 20, 28})     // add leaf3's reach, block, waypoint and maxlen
	f.Add([]byte{2, 36, 52, 4, 4})   // extra block, then reach on its class, waypoint on a base class
	f.Add([]byte{21, 44, 21, 44})    // remove a base reach, block its class, restore (unsat), unblock
	f.Add([]byte{6, 14, 6, 6})       // add both path preferences, remove one, add it back
	f.Add([]byte{7, 2, 5, 7, 2})     // reverse the order around a block toggle and a base removal
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
