package encode

import (
	"context"
	"testing"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/simulate"
	"github.com/aed-net/aed/internal/smt"
	"github.com/aed-net/aed/internal/topology"
)

// rebindNet builds the line network, running proto, with an editable
// in-filter on r1's adjacency toward r2 (matching the 10.1.0.0/24
// destination) plus an unattached anchor filter that pins local
// preferences 110 and 120 into the network-wide lp domain, so toggling
// the editable rule between them never changes the rank encoding.
func rebindNet(t *testing.T, proto config.Proto) (*config.Network, *config.RouteRule) {
	t.Helper()
	net := configgen.Generate(topology.Line(3), configgen.Options{Protocol: proto})
	dst := prefix.MustParse("10.1.0.0/24")
	rule := &config.RouteRule{Permit: true, Prefix: dst, LocalPref: 110}
	r1 := net.Routers["r1"]
	r1.RouteFilters = append(r1.RouteFilters,
		&config.RouteFilter{Name: "f_edit", Rules: []*config.RouteRule{rule}},
		&config.RouteFilter{Name: "f_anchor", Rules: []*config.RouteRule{
			{Permit: true, Prefix: prefix.MustParse("10.0.0.0/24"), LocalPref: 110},
			{Permit: true, Prefix: prefix.MustParse("10.0.0.0/24"), LocalPref: 120},
		}},
	)
	r1.Process(proto).Adjacency("r2").InFilter = "f_edit"
	return net, rule
}

// solveLive encodes the reach policy for 10.1.0.0/24 on net and returns
// the live encoder plus its cold solve result.
func solveLive(t *testing.T, net *config.Network) (*Encoder, *Result) {
	t.Helper()
	_, topo := lineNet(t)
	ps, _ := policy.Parse("reach 10.0.0.0/24 -> 10.1.0.0/24\n")
	dst := prefix.MustParse("10.1.0.0/24")
	e := New(net, topo, dst, DefaultOptions())
	if err := e.EncodePolicies(ps); err != nil {
		t.Fatalf("encode: %v", err)
	}
	e.PenalizeDeltas(1)
	res := e.Solve(smt.LinearDescent)
	if !res.Sat {
		t.Fatal("cold solve unsat")
	}
	return e, res
}

// editedClone clones net and applies f to the editable rule's clone.
func editedClone(net *config.Network, f func(r *config.RouteRule)) *config.Network {
	clone := net.Clone()
	f(clone.Routers["r1"].RouteFilter("f_edit").Rules[0])
	return clone
}

// agreeWithCold checks the live (rebound) encoder against a cold
// encoder built from scratch on the same edited network: same
// satisfiability and same optimum cost, and the live edits must pass
// the independent simulator.
func agreeWithCold(t *testing.T, e *Encoder, edited *config.Network) {
	t.Helper()
	_, topo := lineNet(t)
	ps, _ := policy.Parse("reach 10.0.0.0/24 -> 10.1.0.0/24\n")

	live := e.ReSolveContext(context.Background(), smt.LinearDescent)
	cold, coldRes := solveLive(t, edited)
	_ = cold
	if !live.Sat {
		t.Fatal("rebind re-solve unsat")
	}
	if live.ViolatedWeight != coldRes.ViolatedWeight {
		t.Fatalf("optimum diverged: live violated=%d cold violated=%d",
			live.ViolatedWeight, coldRes.ViolatedWeight)
	}
	updated := Apply(edited, live.Edits)
	sim := simulate.New(updated, topo)
	for _, v := range sim.CheckAll(ps) {
		t.Errorf("policy violated after rebind re-solve: %v", v)
	}
}

func TestRebindLocalPref(t *testing.T) {
	net, _ := rebindNet(t, config.OSPF)
	e, _ := solveLive(t, net)

	edited := editedClone(net, func(r *config.RouteRule) { r.LocalPref = 120 })
	swapped, ok := e.Rebind(edited)
	if !ok {
		t.Fatal("lp-only edit should be rebindable")
	}
	if swapped == 0 {
		t.Fatal("lp edit should flip at least one binding")
	}
	agreeWithCold(t, e, edited)

	// And back: the 110 anchor must be memoized, not re-encoded.
	back := editedClone(edited, func(r *config.RouteRule) { r.LocalPref = 110 })
	if _, ok := e.Rebind(back); !ok {
		t.Fatal("reverting the lp edit should be rebindable")
	}
	agreeWithCold(t, e, back)
}

func TestRebindPermitFlip(t *testing.T) {
	net, _ := rebindNet(t, config.OSPF)
	e, _ := solveLive(t, net)

	edited := editedClone(net, func(r *config.RouteRule) { r.Permit = false })
	swapped, ok := e.Rebind(edited)
	if !ok || swapped == 0 {
		t.Fatalf("permit flip should be rebindable (ok=%v swapped=%d)", ok, swapped)
	}
	agreeWithCold(t, e, edited)

	// permit→deny→permit round trip stays live (the lp machinery was
	// built while the rule was a permit, so it is still present).
	back := editedClone(edited, func(r *config.RouteRule) { r.Permit = true })
	if _, ok := e.Rebind(back); !ok {
		t.Fatal("restoring permit should be rebindable")
	}
	agreeWithCold(t, e, back)
}

func TestRebindRefusesStructuralChanges(t *testing.T) {
	net, _ := rebindNet(t, config.OSPF)

	cases := []struct {
		name string
		edit func(n *config.Network)
	}{
		{"rule added", func(n *config.Network) {
			f := n.Routers["r1"].RouteFilter("f_edit")
			f.Rules = append(f.Rules, &config.RouteRule{Permit: false, Prefix: prefix.MustParse("10.1.0.0/24")})
		}},
		{"prefix changed", func(n *config.Network) {
			n.Routers["r1"].RouteFilter("f_edit").Rules[0].Prefix = prefix.MustParse("10.1.0.0/25")
		}},
		{"metric changed", func(n *config.Network) {
			n.Routers["r1"].RouteFilter("f_edit").Rules[0].Metric = 5
		}},
		{"lp outside domain", func(n *config.Network) {
			n.Routers["r1"].RouteFilter("f_edit").Rules[0].LocalPref = 999
		}},
		{"filter detached", func(n *config.Network) {
			n.Routers["r1"].Process(config.OSPF).Adjacency("r2").InFilter = ""
		}},
		{"adjacency cost changed", func(n *config.Network) {
			n.Routers["r1"].Process(config.OSPF).Adjacency("r2").Cost = 7
		}},
		{"static added", func(n *config.Network) {
			n.Routers["r0"].StaticRoutes = append(n.Routers["r0"].StaticRoutes,
				&config.StaticRoute{Prefix: prefix.MustParse("10.1.0.0/24"), NextHop: "r1"})
		}},
		{"packet filter added", func(n *config.Network) {
			n.Routers["r1"].PacketFilters = append(n.Routers["r1"].PacketFilters,
				&config.PacketFilter{Name: "pf_new", Rules: []*config.PacketRule{
					{Permit: false, Src: prefix.MustParse("10.0.0.0/24"), Dst: prefix.MustParse("10.1.0.0/24")},
				}})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, _ := solveLive(t, net)
			edited := net.Clone()
			tc.edit(edited)
			if _, ok := e.Rebind(edited); ok {
				t.Fatalf("%s must refuse rebind", tc.name)
			}
		})
	}
}

func TestRebindNoChangesIsNoop(t *testing.T) {
	net, _ := rebindNet(t, config.OSPF)
	e, _ := solveLive(t, net)
	swapped, ok := e.Rebind(net.Clone())
	if !ok || swapped != 0 {
		t.Fatalf("identical network: ok=%v swapped=%d, want true/0", ok, swapped)
	}
}
