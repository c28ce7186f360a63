package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/topology"
)

// TestFingerprintSensitivity edits one field at a time on a clone of a
// fabric and checks the destination fingerprint: every field hashRouter
// reads (through the per-router digest) and the covering originations
// must change it, and a route-filter rule that cannot match the
// destination must not. Its second half does the same for the
// topology's part of the shared fingerprint.
func TestFingerprintSensitivity(t *testing.T) {
	base, _ := leafSpineNet(t, 3, 2)
	leaf := base.Routers["leaf0"]
	leaf.StaticRoutes = append(leaf.StaticRoutes,
		&config.StaticRoute{Prefix: prefix.MustParse("10.9.0.0/24"), NextHop: "spine0"})
	leaf.Processes[0].Redistribute = append(leaf.Processes[0].Redistribute, config.Static)
	leaf.RouteFilters = append(leaf.RouteFilters, &config.RouteFilter{Name: "rf_other", Rules: []*config.RouteRule{
		{Permit: true, Prefix: prefix.MustParse("10.200.0.0/24"), LocalPref: 110},
	}})
	if len(leaf.Interfaces) == 0 || len(leaf.Processes[0].Adjacencies) == 0 {
		t.Fatal("fixture router lacks interfaces or adjacencies")
	}

	d := prefix.MustParse("10.1.0.0/24")
	group, err := policy.Parse("block 10.0.0.0/24 -> 10.1.0.0/24\n")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	shared := uint64(1)
	fingerprint := func(net *config.Network) uint64 {
		return destFingerprint(shared, routerDigests(net), d, group, opts)
	}
	want := fingerprint(base)
	if again := fingerprint(base.Clone()); again != want {
		t.Fatalf("clone fingerprint %x, want %x", again, want)
	}

	other := prefix.MustParse("10.77.0.0/24")
	for _, c := range []struct {
		field   string
		edit    func(r *config.Router)
		changes bool
	}{
		{"Interface.Name", func(r *config.Router) { r.Interfaces[0].Name += "x" }, true},
		{"Interface.Addr", func(r *config.Router) { r.Interfaces[0].Addr.Addr++ }, true},
		{"Interface.Addr.Len", func(r *config.Router) { r.Interfaces[0].Addr.Len-- }, true},
		{"Interface.FilterIn", func(r *config.Router) { r.Interfaces[0].FilterIn = "pf_x" }, true},
		{"Interface.FilterOut", func(r *config.Router) { r.Interfaces[0].FilterOut = "pf_x" }, true},
		{"Process.Protocol", func(r *config.Router) { r.Processes[0].Protocol = config.RIP }, true},
		{"Process.ID", func(r *config.Router) { r.Processes[0].ID++ }, true},
		{"Process.Redistribute", func(r *config.Router) { r.Processes[0].Redistribute[0] = config.BGP }, true},
		{"Adjacency.Peer", func(r *config.Router) { r.Processes[0].Adjacencies[0].Peer = "leaf9" }, true},
		{"Adjacency.InFilter", func(r *config.Router) { r.Processes[0].Adjacencies[0].InFilter = "rf_x" }, true},
		{"Adjacency.OutFilter", func(r *config.Router) { r.Processes[0].Adjacencies[0].OutFilter = "rf_x" }, true},
		{"Adjacency.Cost", func(r *config.Router) { r.Processes[0].Adjacencies[0].Cost += 5 }, true},
		{"StaticRoute.Prefix", func(r *config.Router) { r.StaticRoutes[0].Prefix = other }, true},
		{"StaticRoute.NextHop", func(r *config.Router) { r.StaticRoutes[0].NextHop = "spine1" }, true},
		{"covering Origination", func(r *config.Router) {
			r.Processes[0].Originations = append(r.Processes[0].Originations,
				&config.Origination{Prefix: prefix.MustParse("10.0.0.0/8")})
		}, true},
		{"non-matching RouteRule.LocalPref", func(r *config.Router) {
			r.RouteFilter("rf_other").Rules[0].LocalPref = 120
		}, false},
		{"non-matching RouteRule.Permit", func(r *config.Router) {
			r.RouteFilter("rf_other").Rules[0].Permit = false
		}, false},
	} {
		net := base.Clone()
		c.edit(net.Routers["leaf0"])
		if got := fingerprint(net); (got != want) != c.changes {
			t.Errorf("%s: fingerprint changed = %v, want %v", c.field, got != want, c.changes)
		}
	}

	t.Run("shared", func(t *testing.T) { testSharedFingerprintSensitivity(t, base, opts) })
}

// testSharedFingerprintSensitivity checks that every topology edit the
// encoder could read changes sharedFingerprint, and that a clone, or
// the same topology built in another order, does not.
func testSharedFingerprintSensitivity(t *testing.T, net *config.Network, opts Options) {
	type link struct{ a, b string }
	routers := []string{"spine0", "spine1", "leaf0", "leaf1", "leaf2"}
	var links []link
	for _, l := range []string{"leaf0", "leaf1", "leaf2"} {
		links = append(links, link{l, "spine0"}, link{l, "spine1"})
	}
	subnets := []topology.Subnet{
		{Router: "leaf0", Prefix: prefix.MustParse("10.0.0.0/24")},
		{Router: "leaf1", Prefix: prefix.MustParse("10.1.0.0/24")},
		{Router: "leaf2", Prefix: prefix.MustParse("10.2.0.0/24")},
		{Router: "leaf2", Prefix: prefix.MustParse("10.3.0.0/24")},
	}
	build := func(reversed bool) *topology.Topology {
		topo := topology.New("fabric")
		for k := range routers {
			if reversed {
				k = len(routers) - 1 - k
			}
			topo.AddRouter(routers[k], routers[k][:len(routers[k])-1])
		}
		for k := range links {
			if reversed {
				l := links[len(links)-1-k]
				topo.AddLink(l.b, l.a)
			} else {
				topo.AddLink(links[k].a, links[k].b)
			}
		}
		for k := range subnets {
			if reversed {
				k = len(subnets) - 1 - k
			}
			topo.AddSubnet(subnets[k].Router, subnets[k].Prefix)
		}
		return topo
	}
	want := sharedFingerprint(net, build(false), opts)
	clone, err := topology.ParseText("clone", topology.FormatText(build(false)))
	if err != nil {
		t.Fatal(err)
	}
	if got := sharedFingerprint(net, clone, opts); got != want {
		t.Errorf("cloned topology: fingerprint %x, want %x", got, want)
	}
	if got := sharedFingerprint(net, build(true), opts); got != want {
		t.Errorf("topology built in reverse order: fingerprint %x, want %x", got, want)
	}
	for _, c := range []struct {
		edit string
		do   func(*topology.Topology)
	}{
		{"link added", func(topo *topology.Topology) { topo.AddLink("leaf0", "leaf1") }},
		{"link to a router missing from Routers", func(topo *topology.Topology) { topo.AddLink("leaf0", "ghost") }},
		{"link between routers missing from Routers", func(topo *topology.Topology) { topo.AddLink("ghost0", "ghost1") }},
		{"role changed", func(topo *topology.Topology) { topo.Role["leaf1"] = "border" }},
		{"subnet added", func(topo *topology.Topology) { topo.AddSubnet("leaf1", prefix.MustParse("10.9.0.0/24")) }},
		{"subnet moved", func(topo *topology.Topology) { topo.Subnets[0].Router = "leaf1" }},
		{"router added", func(topo *topology.Topology) { topo.AddRouter("leaf3", "leaf") }},
	} {
		topo := build(false)
		c.do(topo)
		if got := sharedFingerprint(net, topo, opts); got == want {
			t.Errorf("%s: shared fingerprint unchanged", c.edit)
		}
	}
}

// fingerprintFabric is edit_stream's 12x3 leaf-spine fabric with one
// blocking policy per leaf subnet: 12 destinations.
func fingerprintFabric(tb testing.TB) (*config.Network, *topology.Topology, []prefix.Prefix, map[prefix.Prefix][]policy.Policy) {
	tb.Helper()
	const leaves = 12
	topo := topology.LeafSpine(leaves, 3, 1)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF, WithRoleFilters: true})
	var text strings.Builder
	for d := 0; d < leaves; d++ {
		fmt.Fprintf(&text, "block 10.%d.0.0/24 -> 10.%d.0.0/24\n", (d+1)%leaves, d)
	}
	ps, err := policy.Parse(text.String())
	if err != nil {
		tb.Fatal(err)
	}
	_, groups, dests := groupDests(ps)
	if len(dests) != leaves {
		tb.Fatalf("%d destinations, want %d", len(dests), leaves)
	}
	return net, topo, dests, groups
}

// BenchmarkSessionFingerprint times one Solve call's fingerprint pass
// (shared inputs, router digests, 12 destinations) on the 12x3 fabric.
func BenchmarkSessionFingerprint(b *testing.B) {
	net, topo, dests, groups := fingerprintFabric(b)
	opts := DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fingerprints(net, topo, dests, groups, opts)
	}
}

// TestSessionFingerprintAllocs bounds the allocations of one Solve
// call's fingerprint pass on the 12x3 fabric.
//
// Measured on linux/amd64, go1.24:
//
//	link and subnet strings built and sorted per call, router names
//	sorted per destination:                      84 allocs
//	topology hashed from its neighbour index, router digests in name
//	order once per call:                          4 allocs
//
// The bound is the last figure plus 15%.
func TestSessionFingerprintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what escapes to the heap")
	}
	const maxAllocs = 5
	net, topo, dests, groups := fingerprintFabric(t)
	opts := DefaultOptions()
	allocs := testing.AllocsPerRun(20, func() { fingerprints(net, topo, dests, groups, opts) })
	t.Logf("fingerprint pass: %.0f allocs", allocs)
	if allocs > maxAllocs {
		t.Errorf("fingerprint pass allocates %.0f objects, bound %d", allocs, maxAllocs)
	}
}
