package core

import (
	"testing"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
)

// TestFingerprintSensitivity edits one field at a time on a clone of a
// fabric and checks the destination fingerprint: every field hashRouter
// reads (through the per-router digest) and the covering originations
// must change it, and a route-filter rule that cannot match the
// destination must not.
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
		return destFingerprint(shared, net, routerDigests(net), d, group, opts)
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
}
