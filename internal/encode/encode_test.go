package encode

import (
	"testing"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/objective"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/simulate"
	"github.com/aed-net/aed/internal/smt"
	"github.com/aed-net/aed/internal/topology"
)

// lineNet builds r0 - r1 - r2 with subnets on r0 and r2, OSPF.
func lineNet(t *testing.T) (*config.Network, *topology.Topology) {
	t.Helper()
	topo := topology.Line(3)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF})
	return net, topo
}

// solveAndApply encodes the policies grouped by dst, solves each
// instance, applies all edits, and returns the updated network.
func solveAndApply(t *testing.T, net *config.Network, topo *topology.Topology,
	ps []policy.Policy, objs []objective.Objective, opts Options) *config.Network {
	t.Helper()
	var edits []Edit
	for dst, group := range policy.GroupByDestination(ps) {
		e := New(net, topo, dst, opts)
		if err := e.EncodePolicies(group); err != nil {
			t.Fatalf("encode %s: %v", dst, err)
		}
		tree := config.Tree(net)
		AugmentTree(tree, e.Deltas())
		e.AddObjectives(objective.InstantiateAll(objs, tree))
		res := e.Solve(smt.LinearDescent)
		if !res.Sat {
			t.Fatalf("instance for %s unsat", dst)
		}
		edits = append(edits, res.Edits...)
	}
	return Apply(net, edits)
}

// checkAll validates the updated network against the policies with
// the independent simulator.
func checkAll(t *testing.T, net *config.Network, topo *topology.Topology, ps []policy.Policy) {
	t.Helper()
	sim := simulate.New(net, topo)
	for _, v := range sim.CheckAll(ps) {
		t.Errorf("policy violated after synthesis: %v", v)
	}
}

func TestSatisfiedPoliciesNeedNoChange(t *testing.T) {
	net, topo := lineNet(t)
	ps, _ := policy.Parse("reach 10.0.0.0/24 -> 10.1.0.0/24\n")
	objs := []objective.Objective{mustObj(t, "NOMODIFY //Router GROUPBY name")}
	updated := solveAndApply(t, net, topo, ps, objs, DefaultOptions())
	d := config.Diff(net, updated)
	if d.LinesChanged() != 0 {
		t.Errorf("already-satisfied policy should need no edits, got %+v", d)
	}
	checkAll(t, updated, topo, ps)
}

func mustObj(t *testing.T, s string) objective.Objective {
	t.Helper()
	o, err := objective.ParseOne(s)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestBlockingAddsFilter(t *testing.T) {
	net, topo := lineNet(t)
	ps, _ := policy.Parse("block 10.0.0.0/24 -> 10.1.0.0/24\n")
	objs := []objective.Objective{mustObj(t, "NOMODIFY //Router GROUPBY name")}
	updated := solveAndApply(t, net, topo, ps, objs, DefaultOptions())
	checkAll(t, updated, topo, ps)
	d := config.Diff(net, updated)
	if d.LinesChanged() == 0 {
		t.Fatal("blocking an open path requires edits")
	}
}

func TestBlockingPreservesOtherReachability(t *testing.T) {
	// Diamond-ish: r0-r1-r2 with both r0 and r2 owning subnets; block
	// one direction while keeping the reverse reachable.
	net, topo := lineNet(t)
	ps, _ := policy.Parse(`block 10.0.0.0/24 -> 10.1.0.0/24
reach 10.1.0.0/24 -> 10.0.0.0/24
`)
	objs := []objective.Objective{mustObj(t, "NOMODIFY //Router GROUPBY name")}
	updated := solveAndApply(t, net, topo, ps, objs, DefaultOptions())
	checkAll(t, updated, topo, ps)
}

func TestReachabilityRepairsRemovedAdjacency(t *testing.T) {
	net, topo := lineNet(t)
	// Break the network: remove r1's adjacency toward r2.
	r1 := net.Routers["r1"]
	p := r1.Process(config.OSPF)
	for i, a := range p.Adjacencies {
		if a.Peer == "r2" {
			p.Adjacencies = append(p.Adjacencies[:i], p.Adjacencies[i+1:]...)
			break
		}
	}
	sim := simulate.New(net, topo)
	ps, _ := policy.Parse("reach 10.0.0.0/24 -> 10.1.0.0/24\n")
	if len(sim.CheckAll(ps)) == 0 {
		t.Fatal("precondition: policy should be violated")
	}
	updated := solveAndApply(t, net, topo, ps, nil, DefaultOptions())
	checkAll(t, updated, topo, ps)
}

func TestReachabilityRepairsDenyFilterRule(t *testing.T) {
	net, topo := lineNet(t)
	// Install a packet filter on r1 denying the class.
	r1 := net.Routers["r1"]
	r1.PacketFilters = append(r1.PacketFilters, &config.PacketFilter{
		Name: "blk",
		Rules: []*config.PacketRule{
			{Permit: false, Src: prefix.MustParse("10.0.0.0/24"), Dst: prefix.MustParse("10.1.0.0/24")},
			{Permit: true},
		},
	})
	r1.Interface("eth-r0").FilterIn = "blk"
	ps, _ := policy.Parse("reach 10.0.0.0/24 -> 10.1.0.0/24\n")
	sim := simulate.New(net, topo)
	if len(sim.CheckAll(ps)) == 0 {
		t.Fatal("precondition: should be filtered")
	}
	updated := solveAndApply(t, net, topo, ps, nil, DefaultOptions())
	checkAll(t, updated, topo, ps)
}

func TestWaypointPolicy(t *testing.T) {
	// Diamond: traffic r0(10.0/24) -> r3(10.1/24)... use figure-1
	// diamond with OSPF everywhere and waypoint via B.
	topo := topology.Diamond()
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF})
	ps := []policy.Policy{{
		Kind: policy.Waypoint,
		Src:  prefix.MustParse("1.0.0.0/16"),
		Dst:  prefix.MustParse("3.0.0.0/16"),
		Via:  "B",
	}}
	updated := solveAndApply(t, net, topo, ps, nil, DefaultOptions())
	checkAll(t, updated, topo, ps)
}

func TestWaypointOtherBranch(t *testing.T) {
	topo := topology.Diamond()
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF})
	ps := []policy.Policy{{
		Kind: policy.Waypoint,
		Src:  prefix.MustParse("1.0.0.0/16"),
		Dst:  prefix.MustParse("3.0.0.0/16"),
		Via:  "C",
	}}
	updated := solveAndApply(t, net, topo, ps, nil, DefaultOptions())
	checkAll(t, updated, topo, ps)
}

func TestUnsatisfiablePolicies(t *testing.T) {
	net, topo := lineNet(t)
	ps, _ := policy.Parse(`reach 10.0.0.0/24 -> 10.1.0.0/24
block 10.0.0.0/24 -> 10.1.0.0/24
`)
	dst := prefix.MustParse("10.1.0.0/24")
	e := New(net, topo, dst, DefaultOptions())
	if err := e.EncodePolicies(ps); err != nil {
		t.Fatal(err)
	}
	res := e.Solve(smt.LinearDescent)
	if res.Sat {
		t.Fatal("contradictory policies must be unsat")
	}
}

func TestMinDevicesObjectiveLimitsSpread(t *testing.T) {
	// Leaf-spine: block a pair; with min-devices the edit should touch
	// few devices.
	topo := topology.LeafSpine(3, 2, 1)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF})
	ps, _ := policy.Parse("block 10.0.0.0/24 -> 10.1.0.0/24\n")
	objs := []objective.Objective{mustObj(t, "NOMODIFY //Router GROUPBY name")}
	updated := solveAndApply(t, net, topo, ps, objs, DefaultOptions())
	checkAll(t, updated, topo, ps)
	d := config.Diff(net, updated)
	if d.DevicesChanged > 2 {
		t.Errorf("min-devices: %d devices changed, want <= 2 (%v)", d.DevicesChanged, d.AddedPaths)
	}
}

func TestEliminateStaticRoutes(t *testing.T) {
	net, topo := lineNet(t)
	// Pre-existing static that the objective wants gone; the policy
	// only needs reach, which OSPF provides.
	net.Routers["r0"].StaticRoutes = append(net.Routers["r0"].StaticRoutes,
		&config.StaticRoute{Prefix: prefix.MustParse("10.1.0.0/24"), NextHop: "r1"})
	ps, _ := policy.Parse("reach 10.0.0.0/24 -> 10.1.0.0/24\n")
	objs := []objective.Objective{mustObj(t, "ELIMINATE //StaticRoute GROUPBY prefix")}
	updated := solveAndApply(t, net, topo, ps, objs, DefaultOptions())
	checkAll(t, updated, topo, ps)
	if len(updated.Routers["r0"].StaticRoutes) != 0 {
		t.Error("static route should have been eliminated")
	}
}

func TestPathPreferencePolicy(t *testing.T) {
	topo := topology.Diamond()
	net := configgen.Generate(topo, configgen.Options{Protocol: config.BGP})
	ps := []policy.Policy{{
		Kind:  policy.PathPreference,
		Src:   prefix.MustParse("1.0.0.0/16"),
		Dst:   prefix.MustParse("3.0.0.0/16"),
		Via:   "C",
		Avoid: "B",
	}}
	updated := solveAndApply(t, net, topo, ps, nil, DefaultOptions())
	checkAll(t, updated, topo, ps)
}

func TestPruningPreservesResults(t *testing.T) {
	net, topo := lineNet(t)
	// Irrelevant filter rules to prune.
	r1 := net.Routers["r1"]
	r1.PacketFilters = append(r1.PacketFilters, &config.PacketFilter{
		Name: "other",
		Rules: []*config.PacketRule{
			{Permit: false, Src: prefix.MustParse("99.0.0.0/8"), Dst: prefix.MustParse("98.0.0.0/8")},
			{Permit: true},
		},
	})
	r1.Interface("eth-r0").FilterIn = "other"
	ps, _ := policy.Parse("block 10.0.0.0/24 -> 10.1.0.0/24\n")

	for _, pruneOn := range []bool{true, false} {
		opts := DefaultOptions()
		opts.NoPrune = !pruneOn
		updated := solveAndApply(t, net, topo, ps, nil, opts)
		checkAll(t, updated, topo, ps)
	}
	// Pruned instance must carry fewer deltas.
	dst := prefix.MustParse("10.1.0.0/24")
	ePruned := New(net, topo, dst, Options{})
	eFull := New(net, topo, dst, Options{NoPrune: true})
	_ = ePruned.EncodePolicies(ps)
	_ = eFull.EncodePolicies(ps)
	if len(ePruned.Deltas()) >= len(eFull.Deltas()) {
		t.Errorf("pruning should reduce deltas: %d vs %d",
			len(ePruned.Deltas()), len(eFull.Deltas()))
	}
}

func TestLPDomainRankEncoding(t *testing.T) {
	net, topo := lineNet(t)
	// Two distinct lp values in configs -> rank domain (2n+1)=5.
	r0 := net.Routers["r0"]
	r0.RouteFilters = append(r0.RouteFilters, &config.RouteFilter{
		Name: "f",
		Rules: []*config.RouteRule{
			{Permit: true, Prefix: prefix.Prefix{}, LocalPref: 50},
			{Permit: true, Prefix: prefix.Prefix{}, LocalPref: 150},
		},
	})
	e := New(net, topo, prefix.MustParse("10.1.0.0/24"), DefaultOptions())
	dom := e.LPDomain()
	if len(dom) != 7 {
		// values {50,100,150} -> 2*3+1 = 7 ranks
		t.Errorf("lp domain = %v, want 7 ranks", dom)
	}
	eWide := New(net, topo, prefix.MustParse("10.1.0.0/24"), Options{WideIntegers: true})
	if len(eWide.LPDomain()) != 256 {
		t.Errorf("wide lp domain = %d, want 256", len(eWide.LPDomain()))
	}
}

func TestEquateObjectiveKeepsTemplates(t *testing.T) {
	// Two leaves share a template filter; blocking traffic to one
	// subnet with EQUATE should yield symmetric (or no-filter) edits.
	topo := topology.LeafSpine(2, 1, 1)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF, WithRoleFilters: true})
	ps, _ := policy.Parse("block 10.0.0.0/24 -> 10.1.0.0/24\n")
	objs, err := objective.Named("preserve-templates")
	if err != nil {
		t.Fatal(err)
	}
	updated := solveAndApply(t, net, topo, ps, objs, DefaultOptions())
	checkAll(t, updated, topo, ps)
	if v := config.TemplateViolations(net, updated); v != 0 {
		t.Errorf("template violations = %d, want 0", v)
	}
}

func TestResultMetadata(t *testing.T) {
	net, topo := lineNet(t)
	ps, _ := policy.Parse("reach 10.0.0.0/24 -> 10.1.0.0/24\n")
	e := New(net, topo, prefix.MustParse("10.1.0.0/24"), DefaultOptions())
	if err := e.EncodePolicies(ps); err != nil {
		t.Fatal(err)
	}
	res := e.Solve(smt.LinearDescent)
	if !res.Sat {
		t.Fatal("want sat")
	}
	if res.NumVars == 0 || res.Iterations == 0 {
		t.Error("result metadata missing")
	}
}

func TestEncodeErrorsOnUnknownSubnets(t *testing.T) {
	net, topo := lineNet(t)
	e := New(net, topo, prefix.MustParse("99.0.0.0/24"), DefaultOptions())
	err := e.EncodePolicies([]policy.Policy{{
		Kind: policy.Reachability,
		Src:  prefix.MustParse("10.0.0.0/24"),
		Dst:  prefix.MustParse("99.0.0.0/24"),
	}})
	if err == nil {
		t.Error("unknown destination subnet must error")
	}
	e2 := New(net, topo, prefix.MustParse("10.1.0.0/24"), DefaultOptions())
	err = e2.EncodePolicies([]policy.Policy{{
		Kind: policy.Reachability,
		Src:  prefix.MustParse("88.0.0.0/24"),
		Dst:  prefix.MustParse("10.1.0.0/24"),
	}})
	if err == nil {
		t.Error("unknown source subnet must error")
	}
}

func TestRIPSynthesis(t *testing.T) {
	// End-to-end on a RIP-only network (the §11 extension): blocking
	// and reachability both synthesize and validate.
	topo := topology.Line(4)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.RIP})
	ps, _ := policy.Parse(`block 10.0.0.0/24 -> 10.1.0.0/24
reach 10.1.0.0/24 -> 10.0.0.0/24
`)
	objs := []objective.Objective{mustObj(t, "NOMODIFY //Router GROUPBY name")}
	updated := solveAndApply(t, net, topo, ps, objs, DefaultOptions())
	checkAll(t, updated, topo, ps)
}

func TestJointEncodingConsistency(t *testing.T) {
	// The monolithic formulation may use broad deltas (e.g. adjacency
	// removals) because all destinations share one model; the merged
	// solution must still satisfy every policy.
	net, topo := lineNet(t)
	ps, _ := policy.Parse(`block 10.0.0.0/24 -> 10.1.0.0/24
reach 10.1.0.0/24 -> 10.0.0.0/24
`)
	j := NewJoint(net, topo, Options{})
	for dst, group := range policy.GroupByDestination(ps) {
		if err := j.AddGroup(dst, group); err != nil {
			t.Fatal(err)
		}
	}
	tree := config.Tree(net)
	AugmentTree(tree, j.Deltas())
	objs := []objective.Objective{mustObj(t, "NOMODIFY //Router GROUPBY name")}
	j.AddObjectives(objective.InstantiateAll(objs, tree))
	res := j.Solve(smt.LinearDescent)
	if !res.Sat {
		t.Fatal("joint instance unsat")
	}
	updated := Apply(net, res.Edits)
	checkAll(t, updated, topo, ps)
}

func TestJointMatchesSplitOptimum(t *testing.T) {
	// For a simple blocking policy, split and joint should both find
	// minimal-device solutions.
	topo := topology.LeafSpine(2, 1, 1)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF})
	ps, _ := policy.Parse("block 10.0.0.0/24 -> 10.1.0.0/24\n")
	objs := []objective.Objective{mustObj(t, "NOMODIFY //Router GROUPBY name")}

	splitNet := solveAndApply(t, net, topo, ps, objs, DefaultOptions())
	splitDiff := config.Diff(net, splitNet)

	j := NewJoint(net, topo, Options{})
	for dst, group := range policy.GroupByDestination(ps) {
		if err := j.AddGroup(dst, group); err != nil {
			t.Fatal(err)
		}
	}
	tree := config.Tree(net)
	AugmentTree(tree, j.Deltas())
	j.AddObjectives(objective.InstantiateAll(objs, tree))
	res := j.Solve(smt.LinearDescent)
	if !res.Sat {
		t.Fatal("joint unsat")
	}
	jointNet := Apply(net, res.Edits)
	checkAll(t, jointNet, topo, ps)
	jointDiff := config.Diff(net, jointNet)
	if jointDiff.DevicesChanged > splitDiff.DevicesChanged {
		t.Errorf("joint (%d devices) should be no worse than split (%d)",
			jointDiff.DevicesChanged, splitDiff.DevicesChanged)
	}
}

func TestApplyEditsIdempotentKinds(t *testing.T) {
	net, _ := lineNet(t)
	edits := []Edit{
		{Kind: AddStaticRoute, Router: "r0", Prefix: prefix.MustParse("10.1.0.0/24"), Peer: "r1"},
		{Kind: AddStaticRoute, Router: "r0", Prefix: prefix.MustParse("10.1.0.0/24"), Peer: "r1"},
		{Kind: AddAdjacency, Router: "r0", Proto: config.OSPF, Peer: "r1"}, // exists
	}
	out := Apply(net, edits)
	if len(out.Routers["r0"].StaticRoutes) != 1 {
		t.Error("duplicate static adds must collapse")
	}
	if len(out.Routers["r0"].Process(config.OSPF).Adjacencies) !=
		len(net.Routers["r0"].Process(config.OSPF).Adjacencies) {
		t.Error("adding an existing adjacency must be a no-op")
	}
}

func TestApplyRemovalOrdering(t *testing.T) {
	net, _ := lineNet(t)
	r0 := net.Routers["r0"]
	r0.PacketFilters = append(r0.PacketFilters, &config.PacketFilter{
		Name: "f",
		Rules: []*config.PacketRule{
			{Permit: false, Src: prefix.MustParse("1.0.0.0/8")},
			{Permit: false, Src: prefix.MustParse("2.0.0.0/8")},
			{Permit: true},
		},
	})
	out := Apply(net, []Edit{
		{Kind: RemovePacketRule, Router: "r0", Filter: "f", RuleIndex: 0},
		{Kind: RemovePacketRule, Router: "r0", Filter: "f", RuleIndex: 1},
	})
	rules := out.Routers["r0"].PacketFilter("f").Rules
	if len(rules) != 1 || !rules[0].Permit {
		t.Errorf("descending-order removal broken: %d rules left", len(rules))
	}
}

func TestPathLengthPolicy(t *testing.T) {
	// Diamond with BGP: default path A->B->D might be 2 hops already;
	// force a longer current path via local preference and then ask
	// for a 2-hop bound.
	topo := topology.Diamond()
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF})
	// Break the direct links' attractiveness: raise cost on B-D so the
	// current route D<-...<-A takes 3 hops via C? Simpler: just assert
	// the bound and check it validates.
	ps := []policy.Policy{{
		Kind:   policy.PathLength,
		Src:    prefix.MustParse("1.0.0.0/16"),
		Dst:    prefix.MustParse("3.0.0.0/16"),
		MaxLen: 2,
	}}
	updated := solveAndApply(t, net, topo, ps, nil, DefaultOptions())
	checkAll(t, updated, topo, ps)
}

func TestPathLengthUnsatisfiableBound(t *testing.T) {
	// 4-router line: r0 to r3's subnet needs 3 hops; a 1-hop bound is
	// impossible.
	topo := topology.Line(4)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF})
	dst := prefix.MustParse("10.1.0.0/24")
	e := New(net, topo, dst, DefaultOptions())
	err := e.EncodePolicies([]policy.Policy{{
		Kind: policy.PathLength, Src: prefix.MustParse("10.0.0.0/24"),
		Dst: dst, MaxLen: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res := e.Solve(smt.LinearDescent); res.Sat {
		t.Fatal("1-hop bound across a 3-hop line must be unsat")
	}
	// A 3-hop bound is fine.
	e2 := New(net, topo, dst, DefaultOptions())
	if err := e2.EncodePolicies([]policy.Policy{{
		Kind: policy.PathLength, Src: prefix.MustParse("10.0.0.0/24"),
		Dst: dst, MaxLen: 3,
	}}); err != nil {
		t.Fatal(err)
	}
	if res := e2.Solve(smt.LinearDescent); !res.Sat {
		t.Fatal("3-hop bound should be sat")
	}
}

func TestPathUnder(t *testing.T) {
	for _, c := range []struct {
		path, root string
		want       bool
	}{
		{"r1", "r1", true},                                       // equal path
		{"r1/RouteFilter[f]/Rule[0]", "r1", true},                // child path
		{"r10/RouteFilter[f]/Rule[0]", "r1", false},              // sibling sharing a name prefix
		{"r2/RoutingProcess[ospf:1]/Adjacency[r1]", "r1", false}, // unrelated path
	} {
		if got := pathUnder(c.path, c.root); got != c.want {
			t.Errorf("pathUnder(%q, %q) = %v, want %v", c.path, c.root, got, c.want)
		}
	}
}
