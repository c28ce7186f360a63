package config_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/prefix"
)

// fleetNetwork returns configgen fleet member i (dc00–dc11) running
// proto, with role filters.
func fleetNetwork(i int, proto config.Proto) *config.Network {
	topos := configgen.DatacenterFleet(12, 1)
	return configgen.Generate(topos[i%len(topos)], configgen.Options{Protocol: proto, WithRoleFilters: true})
}

func randPrefix(rng *rand.Rand) prefix.Prefix {
	return prefix.Prefix{Addr: rng.Uint32(), Len: rng.Intn(33)}
}

func pickRouter(rng *rand.Rand, n *config.Network) *config.Router {
	names := n.RouterNames()
	if len(names) == 0 {
		return nil
	}
	return n.Routers[names[rng.Intn(len(names))]]
}

// mutate applies one random edit to n: a section edit (including
// duplicate section keys and duplicate rules), or a router added,
// removed or emptied.
func mutate(rng *rand.Rand, n *config.Network) {
	r := pickRouter(rng, n)
	if r == nil {
		n.Routers["new"] = &config.Router{Name: "new"}
		return
	}
	peer := pickRouter(rng, n).Name
	switch rng.Intn(16) {
	case 0: // interface address or filter
		if len(r.Interfaces) > 0 {
			i := r.Interfaces[rng.Intn(len(r.Interfaces))]
			if rng.Intn(2) == 0 {
				i.Addr = randPrefix(rng)
			} else {
				i.FilterOut = fmt.Sprintf("pf%d", rng.Intn(3))
			}
		}
	case 1: // duplicate or new interface
		if len(r.Interfaces) > 0 && rng.Intn(2) == 0 {
			c := *r.Interfaces[rng.Intn(len(r.Interfaces))]
			r.Interfaces = append(r.Interfaces, &c)
		} else {
			r.Interfaces = append(r.Interfaces, &config.Interface{Name: fmt.Sprintf("host%d", rng.Intn(4)), Addr: randPrefix(rng)})
		}
	case 2: // drop a section
		switch {
		case len(r.Interfaces) > 0 && rng.Intn(2) == 0:
			k := rng.Intn(len(r.Interfaces))
			r.Interfaces = append(r.Interfaces[:k:k], r.Interfaces[k+1:]...)
		case len(r.Processes) > 0:
			k := rng.Intn(len(r.Processes))
			r.Processes = append(r.Processes[:k:k], r.Processes[k+1:]...)
		}
	case 3: // adjacency cost and filters
		if len(r.Processes) == 0 {
			break
		}
		if p := r.Processes[rng.Intn(len(r.Processes))]; len(p.Adjacencies) > 0 {
			a := p.Adjacencies[rng.Intn(len(p.Adjacencies))]
			a.Cost = rng.Intn(4) - 1
			a.InFilter = []string{"", "rf0", "rf1"}[rng.Intn(3)]
		}
	case 4: // origination, redistribution, adjacency
		if len(r.Processes) > 0 {
			p := r.Processes[rng.Intn(len(r.Processes))]
			switch rng.Intn(3) {
			case 0:
				p.Originations = append(p.Originations, &config.Origination{Prefix: randPrefix(rng).Canonical()})
			case 1:
				p.Redistribute = append(p.Redistribute, config.Protocols[rng.Intn(3)])
			default:
				p.Adjacencies = append(p.Adjacencies, &config.Adjacency{Peer: peer})
			}
		}
	case 5: // duplicate or new process
		if len(r.Processes) > 0 && rng.Intn(2) == 0 {
			r.Processes = append(r.Processes, r.Processes[rng.Intn(len(r.Processes))].Clone())
		} else {
			r.Processes = append(r.Processes, &config.Process{Protocol: config.Protocols[rng.Intn(3)], ID: rng.Intn(3)})
		}
	case 6, 7: // route filter rule inserted, possibly duplicating one
		name := fmt.Sprintf("rf%d", rng.Intn(2))
		f := r.RouteFilter(name)
		if f == nil || rng.Intn(4) == 0 {
			f = &config.RouteFilter{Name: name}
			r.RouteFilters = append(r.RouteFilters, f)
		}
		rule := &config.RouteRule{Permit: rng.Intn(2) == 0, Prefix: randPrefix(rng).Canonical(),
			LocalPref: rng.Intn(3) * 50, Metric: rng.Intn(2) * 7}
		if len(f.Rules) > 0 && rng.Intn(2) == 0 {
			c := *f.Rules[rng.Intn(len(f.Rules))]
			rule = &c
		}
		k := rng.Intn(len(f.Rules) + 1)
		f.Rules = append(f.Rules[:k:k], append([]*config.RouteRule{rule}, f.Rules[k:]...)...)
	case 8: // route filter rule removed or edited
		if len(r.RouteFilters) > 0 {
			f := r.RouteFilters[rng.Intn(len(r.RouteFilters))]
			if len(f.Rules) > 0 {
				k := rng.Intn(len(f.Rules))
				if rng.Intn(2) == 0 {
					f.Rules = append(f.Rules[:k:k], f.Rules[k+1:]...)
				} else {
					f.Rules[k].Permit = !f.Rules[k].Permit
				}
			}
		}
	case 9, 10: // packet filter rule inserted; filters may share a name
		var f *config.PacketFilter
		if len(r.PacketFilters) > 0 && rng.Intn(3) != 0 {
			f = r.PacketFilters[rng.Intn(len(r.PacketFilters))]
		} else {
			f = &config.PacketFilter{Name: fmt.Sprintf("pf%d", rng.Intn(2))}
			r.PacketFilters = append(r.PacketFilters, f)
		}
		rule := &config.PacketRule{Permit: rng.Intn(2) == 0, Src: randPrefix(rng).Canonical(), Dst: randPrefix(rng).Canonical()}
		if len(f.Rules) > 0 && rng.Intn(2) == 0 {
			c := *f.Rules[rng.Intn(len(f.Rules))]
			rule = &c
		}
		k := rng.Intn(len(f.Rules) + 1)
		f.Rules = append(f.Rules[:k:k], append([]*config.PacketRule{rule}, f.Rules[k:]...)...)
	case 11: // packet filter rule removed, or a filter emptied
		if len(r.PacketFilters) > 0 {
			f := r.PacketFilters[rng.Intn(len(r.PacketFilters))]
			if len(f.Rules) > 0 && rng.Intn(3) != 0 {
				k := rng.Intn(len(f.Rules))
				f.Rules = append(f.Rules[:k:k], f.Rules[k+1:]...)
			} else {
				f.Rules = nil
			}
		}
	case 12: // static routes, duplicates included
		if len(r.StaticRoutes) > 0 && rng.Intn(2) == 0 {
			c := *r.StaticRoutes[rng.Intn(len(r.StaticRoutes))]
			c.NextHop = peer
			r.StaticRoutes = append(r.StaticRoutes, &c)
		} else {
			r.StaticRoutes = append(r.StaticRoutes, &config.StaticRoute{Prefix: randPrefix(rng), NextHop: peer})
		}
	case 13: // router added, as a copy of another under a new name
		c := r.Clone()
		c.Name = fmt.Sprintf("x%d", rng.Intn(3))
		n.Routers[c.Name] = c
	case 14: // router removed
		delete(n.Routers, r.Name)
	case 15: // router emptied, or (rarely) stored under another key
		if rng.Intn(8) == 0 {
			r.Name += "-renamed"
		} else {
			*r = config.Router{Name: r.Name}
		}
	}
}

// randomPair returns a fleet network edited twice independently.
func randomPair(rng *rand.Rand, fleet int, edits int) (before, after *config.Network) {
	proto := []config.Proto{config.BGP, config.OSPF}[rng.Intn(2)]
	base := fleetNetwork(fleet, proto)
	for i := 0; i < rng.Intn(3); i++ {
		mutate(rng, base)
	}
	before, after = base.Clone(), base.Clone()
	for i := 0; i < edits; i++ {
		if rng.Intn(3) == 0 {
			mutate(rng, before)
		} else {
			mutate(rng, after)
		}
	}
	return before, after
}

func checkDiff(t *testing.T, before, after *config.Network) {
	t.Helper()
	got, want := config.Diff(before, after), config.ReferenceDiff(before, after)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Diff differs from the whole-network diff:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestDiffMatchesWholeNetwork holds the section-level Diff to the
// whole-network leaf-set diff on randomly edited configgen fleets.
func TestDiffMatchesWholeNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 600; i++ {
		before, after := randomPair(rng, i%12, 1+rng.Intn(6))
		checkDiff(t, before, after)
	}
}

func FuzzDiff(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3))
	f.Add(int64(7), uint8(11), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, fleet, edits uint8) {
		rng := rand.New(rand.NewSource(seed))
		before, after := randomPair(rng, int(fleet), int(edits%24))
		checkDiff(t, before, after)
	})
}

// TestRuleStringsMatchFmt pins the fmt-free rule renderers to the fmt
// formatting they replaced.
func TestRuleStringsMatchFmt(t *testing.T) {
	orAny := func(p prefix.Prefix) string {
		if p.IsDefault() {
			return "any"
		}
		return p.String()
	}
	action := func(permit bool) string {
		if permit {
			return "permit"
		}
		return "deny"
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		rr := &config.RouteRule{Permit: rng.Intn(2) == 0, Prefix: randPrefix(rng),
			LocalPref: rng.Intn(3) * (rng.Intn(400) - 100), Metric: rng.Intn(3) * (rng.Intn(1<<20) - 9)}
		want := fmt.Sprintf("%s %s", action(rr.Permit), orAny(rr.Prefix))
		if rr.LocalPref != 0 {
			want += fmt.Sprintf(" set local-preference %d", rr.LocalPref)
		}
		if rr.Metric != 0 {
			want += fmt.Sprintf(" set metric %d", rr.Metric)
		}
		if got := config.RouteRuleString(rr); got != want {
			t.Fatalf("routeRuleString(%+v) = %q, want %q", *rr, got, want)
		}
		pr := &config.PacketRule{Permit: rng.Intn(2) == 0, Src: randPrefix(rng), Dst: randPrefix(rng)}
		if rng.Intn(3) == 0 {
			pr.Src = prefix.Prefix{}
		}
		want = fmt.Sprintf("%s ip %s %s", action(pr.Permit), orAny(pr.Src), orAny(pr.Dst))
		if got := config.PacketRuleString(pr); got != want {
			t.Fatalf("packetRuleString(%+v) = %q, want %q", *pr, got, want)
		}
	}
}
