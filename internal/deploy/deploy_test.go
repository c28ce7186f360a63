package deploy

import (
	"strings"
	"testing"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/encode"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/simulate"
	"github.com/aed-net/aed/internal/topology"
)

func TestSingleDeviceTrivial(t *testing.T) {
	topo := topology.Line(3)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF})
	edits := []encode.Edit{{
		Kind: encode.AddPacketRuleFront, Router: "r1", Filter: "blk",
		Src: prefix.MustParse("10.0.0.0/24"), Prefix: prefix.MustParse("10.1.0.0/24"),
	}, {
		Kind: encode.AttachPacketFilter, Router: "r1", Iface: "eth-r0", Filter: "blk",
	}}
	ps, _ := policy.Parse("reach 10.1.0.0/24 -> 10.0.0.0/24\n")
	plan := Build(net, topo, edits, ps)
	if len(plan.Steps) != 1 || !plan.Safe {
		t.Fatalf("plan: %+v", plan)
	}
	if plan.Steps[0].Router != "r1" {
		t.Error("single batch should target r1")
	}
	if !strings.Contains(plan.String(), "transient-safe") {
		t.Error("String should report safety")
	}
}

// TestStaticChainOrdering: repairing reachability with static routes
// along a path deploys destination-side first; deploying the source
// router first would blackhole protected traffic transiting it... the
// greedy planner must find the transient-safe order here.
func TestStaticChainOrdering(t *testing.T) {
	topo := topology.Line(4) // r0-r1-r2-r3; subnets on r0, r3
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF})
	// Remove every origination for 10.1/24 (r3's subnet), breaking
	// reachability; the repair adds statics along the path.
	net.Routers["r3"].Process(config.OSPF).Originations = nil
	dst := prefix.MustParse("10.1.0.0/24")
	edits := []encode.Edit{
		{Kind: encode.AddStaticRoute, Router: "r0", Prefix: dst, Peer: "r1"},
		{Kind: encode.AddStaticRoute, Router: "r1", Prefix: dst, Peer: "r2"},
		{Kind: encode.AddStaticRoute, Router: "r2", Prefix: dst, Peer: "r3"},
	}
	// Protected: the reverse direction keeps working throughout.
	ps, _ := policy.Parse("reach 10.1.0.0/24 -> 10.0.0.0/24\n")
	plan := Build(net, topo, edits, ps)
	if !plan.Safe {
		t.Fatalf("expected a safe order:\n%s", plan)
	}
	if len(plan.Steps) != 3 {
		t.Fatalf("steps = %d", len(plan.Steps))
	}
	// Final state must deliver the repaired direction.
	final := encode.Apply(net, edits)
	if _, st := simulate.New(final, topo).Path(prefix.MustParse("10.0.0.0/24"), dst); st != simulate.Delivered {
		t.Fatalf("final state broken: %v", st)
	}
}

// TestTransientConflictReported: when updates on two devices swap a
// path such that every order breaks a protected policy transiently,
// the plan must report unsafety rather than hide it.
func TestTransientConflictReported(t *testing.T) {
	topo := topology.Line(3)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF})
	// Contrived: both r0 and r2 attach filters that individually
	// block r0->r2 traffic, but the final state permits it via
	// class-specific permits in front. Intermediate states (one
	// device updated) block the protected class.
	src := prefix.MustParse("10.0.0.0/24")
	dst := prefix.MustParse("10.1.0.0/24")
	edits := []encode.Edit{
		// r1 gets a filter that denies the class generally...
		{Kind: encode.AddPacketRuleFront, Router: "r1", Filter: "f1", Src: src, Prefix: dst},
		{Kind: encode.AttachPacketFilter, Router: "r1", Iface: "eth-r0", Filter: "f1"},
		// ...and r2's update alone also denies it.
		{Kind: encode.AddPacketRuleFront, Router: "r2", Filter: "f2", Src: src, Prefix: dst},
		{Kind: encode.AttachPacketFilter, Router: "r2", Iface: "eth-r1", Filter: "f2"},
	}
	// The protected policy: the class stays reachable. It holds
	// before (no filters) but NOT after (both deny) — so it is not
	// protected, and the plan is trivially safe.
	ps, _ := policy.Parse("reach 10.0.0.0/24 -> 10.1.0.0/24\n")
	plan := Build(net, topo, edits, ps)
	if !plan.Safe {
		t.Fatal("policy broken in the final state must not count as transient")
	}

	// Now a genuinely transient case: the final state PERMITS the
	// class (permit rules land in front of the denies), but each
	// single-device intermediate state blocks it.
	edits = append(edits,
		encode.Edit{Kind: encode.AddPacketRuleFront, Router: "r1", Filter: "f1", Src: src, Prefix: dst, Permit: true},
		encode.Edit{Kind: encode.AddPacketRuleFront, Router: "r2", Filter: "f2", Src: src, Prefix: dst, Permit: true},
	)
	plan = Build(net, topo, edits, ps)
	if len(plan.Steps) != 2 {
		t.Fatalf("steps = %d", len(plan.Steps))
	}
	// Each device's batch is internally consistent (its own permit
	// lands with its deny), so the rollout is safe device-by-device.
	if !plan.Safe {
		t.Fatalf("device-atomic batches should be safe:\n%s", plan)
	}
}

// TestUnsafeOrderDetected: construct a case where one order is safe
// and the other is not; the greedy planner must pick the safe one.
func TestUnsafeOrderDetected(t *testing.T) {
	topo := topology.Line(3)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF})
	src := prefix.MustParse("10.0.0.0/24")
	dst := prefix.MustParse("10.1.0.0/24")
	// r1's batch blocks the class; r2's batch adds nothing harmful.
	// The protected set contains the class only if it survives the
	// final state — r1's deny kills it finally, so protected excludes
	// it; use the reverse class as the canary: r1's batch also
	// removes the OSPF adjacency to r0 (breaking reverse reach), and
	// r2's batch adds a static repairing it. Applying r1 before r2
	// transiently breaks the canary; r2-first is safe.
	rev := prefix.MustParse("10.0.0.0/24")
	edits := []encode.Edit{
		// r1's batch tears down the OSPF session toward r2 and pins
		// its own forward route.
		{Kind: encode.RemoveAdjacency, Router: "r1", Proto: config.OSPF, Peer: "r2"},
		{Kind: encode.AddStaticRoute, Router: "r1", Prefix: dst, Peer: "r2"},
		// r0 and r2 pin the statics that keep both directions alive
		// once OSPF no longer carries them.
		{Kind: encode.AddStaticRoute, Router: "r0", Prefix: dst, Peer: "r1"},
		{Kind: encode.AddStaticRoute, Router: "r2", Prefix: rev, Peer: "r1"},
	}
	_ = src
	ps, _ := policy.Parse("reach 10.1.0.0/24 -> 10.0.0.0/24\nreach 10.0.0.0/24 -> 10.1.0.0/24\n")
	final := encode.Apply(net, edits)
	if vs := simulate.New(final, topo).CheckAll(ps); len(vs) != 0 {
		t.Fatalf("scenario setup wrong; final state violates: %v", vs)
	}
	plan := Build(net, topo, edits, ps)
	t.Logf("plan:\n%s", plan)
	if !plan.Safe {
		t.Fatalf("a safe order exists (statics before teardown); plan:\n%s", plan)
	}
	// The teardown batch (r1) must come last: deploying it first
	// transiently blackholes both directions.
	if plan.Steps[len(plan.Steps)-1].Router != "r1" {
		t.Errorf("r1's teardown should deploy last:\n%s", plan)
	}
}
