package encode

import (
	"context"
	"testing"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/smt"
	"github.com/aed-net/aed/internal/topology"
)

// TestRetargetFollowsOnlyEncodedPolicies: a parked instance encoded by
// EncodeRetractable switches its encoded policies off and on again,
// each time reaching the optimum of a cold encoding of the same group.
// A group holding a policy the instance has not encoded is refused
// without mutating anything, so the caller re-encodes and a live
// instance never holds more policies than its last encoding did.
func TestRetargetFollowsOnlyEncodedPolicies(t *testing.T) {
	topo := topology.LeafSpine(3, 2, 1)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF})
	dst := prefix.MustParse("10.1.0.0/24")
	parse := func(text string) []policy.Policy {
		t.Helper()
		ps, err := policy.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	base := parse("block 10.0.0.0/24 -> 10.1.0.0/24\nreach 10.2.0.0/24 -> 10.1.0.0/24\n")
	cold := func(ps []policy.Policy) *Result {
		t.Helper()
		e := New(net, topo, dst, DefaultOptions())
		if err := e.EncodePolicies(ps); err != nil {
			t.Fatal(err)
		}
		e.PenalizeDeltas(1)
		return e.Solve(smt.LinearDescent)
	}

	e := New(net, topo, dst, DefaultOptions())
	if err := e.EncodeRetractable(base); err != nil {
		t.Fatal(err)
	}
	e.PenalizeDeltas(1)
	if !e.Solve(smt.LinearDescent).Sat {
		t.Fatal("cold solve unsat")
	}
	e.Park()

	for _, step := range []struct {
		name             string
		ps               []policy.Policy
		added, retracted int
	}{
		{"withdraw the block", base[1:], 0, 1},
		{"restore it", base, 1, 0},
		{"resubmit", base, 0, 0},
	} {
		r, ok := e.Retarget(net, step.ps)
		if !ok || r.Added != step.added || r.Retracted != step.retracted {
			t.Fatalf("%s: Retarget = %+v, %v; want %d added, %d retracted", step.name, r, ok, step.added, step.retracted)
		}
		live := e.ReSolveContext(context.Background(), smt.LinearDescent)
		want := cold(step.ps)
		if live.Sat != want.Sat || live.ViolatedWeight != want.ViolatedWeight {
			t.Fatalf("%s: live sat=%v cost %d, cold sat=%v cost %d",
				step.name, live.Sat, live.ViolatedWeight, want.Sat, want.ViolatedWeight)
		}
	}

	// A new policy beside a withdrawal: refused, and the withdrawal is
	// not carried out either.
	novel := append(base[1:2:2], parse("reach 10.0.0.0/24 -> 10.1.0.0/24\n")...)
	if r, ok := e.Retarget(net, novel); ok || r != (Retargeting{}) {
		t.Fatalf("Retarget onto a new policy = %+v, %v; want refused", r, ok)
	}
	if len(e.guards) != len(base) {
		t.Errorf("%d guards after a refused Retarget, want %d", len(e.guards), len(base))
	}
	for p, g := range e.guards {
		if !g.on {
			t.Errorf("%v switched off by a refused Retarget", p)
		}
	}
	live, want := e.ReSolveContext(context.Background(), smt.LinearDescent), cold(base)
	if live.Sat != want.Sat || live.ViolatedWeight != want.ViolatedWeight {
		t.Fatalf("after a refused Retarget: live sat=%v cost %d, cold sat=%v cost %d",
			live.Sat, live.ViolatedWeight, want.Sat, want.ViolatedWeight)
	}
}
