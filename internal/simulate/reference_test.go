package simulate

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/topology"
)

// The reference simulator below is the map-keyed fixpoint the indexed
// one replaced, kept as a test oracle: per-process bests live in a map
// keyed by router name, and every name is looked up in the network at
// every step.

type refKey struct {
	router string
	proto  config.Proto
}

func referenceRoutes(s *Simulator, dst prefix.Prefix) map[string]Route {
	procBest := make(map[refKey]*Route)
	for name, r := range s.Net.Routers {
		if s.DisabledRouters[name] {
			continue
		}
		for _, p := range r.Processes {
			for _, o := range p.Originations {
				if o.Prefix.Covers(dst) {
					procBest[refKey{name, p.Protocol}] = &Route{
						Proto: p.Protocol, LocalPref: defaultLP, AD: p.Protocol.AdminDistance(),
					}
				}
			}
		}
	}
	routers := s.Net.RouterNames()
	maxRounds := 2*len(routers) + 4
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, name := range routers {
			if s.DisabledRouters[name] {
				continue
			}
			for _, p := range s.Net.Routers[name].Processes {
				key := refKey{name, p.Protocol}
				var best *Route
				if r, ok := originationRoute(p, dst); ok {
					best = &r
				}
				for _, redistProto := range p.Redistribute {
					src := procBest[refKey{name, redistProto}]
					if src == nil {
						continue
					}
					cand := Route{Proto: p.Protocol, NextHop: src.NextHop, LocalPref: defaultLP,
						Cost: 1, AD: p.Protocol.AdminDistance()}
					if best == nil || better(p.Protocol, cand, *best) {
						c := cand
						best = &c
					}
				}
				for _, adj := range p.Adjacencies {
					cand := referenceReceive(s, name, p, adj, dst, procBest)
					if cand != nil && (best == nil || better(p.Protocol, *cand, *best)) {
						best = cand
					}
				}
				cur := procBest[key]
				if (cur == nil) != (best == nil) || (cur != nil && *cur != *best) {
					procBest[key] = best
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	out := make(map[string]Route)
	for _, name := range routers {
		if s.DisabledRouters[name] {
			continue
		}
		r := s.Net.Routers[name]
		var best *Route
		for _, p := range r.Processes {
			cand := procBest[refKey{name, p.Protocol}]
			if cand != nil && (best == nil || cand.AD < best.AD) {
				c := *cand
				best = &c
			}
		}
		for _, st := range r.StaticRoutes {
			if !st.Prefix.Covers(dst) || s.DisabledRouters[st.NextHop] || !s.Topo.HasLink(name, st.NextHop) {
				continue
			}
			cand := Route{Proto: config.Static, NextHop: st.NextHop, LocalPref: defaultLP,
				Cost: 1, AD: config.Static.AdminDistance()}
			if best == nil || cand.AD < best.AD {
				best = &cand
			}
		}
		if best != nil {
			out[name] = *best
		}
	}
	return out
}

func referenceReceive(s *Simulator, name string, p *config.Process, adj *config.Adjacency,
	dst prefix.Prefix, procBest map[refKey]*Route) *Route {
	peerName := adj.Peer
	if s.DisabledRouters[peerName] || !s.Topo.HasLink(name, peerName) {
		return nil
	}
	peer := s.Net.Routers[peerName]
	if peer == nil {
		return nil
	}
	peerProc := peer.Process(p.Protocol)
	if peerProc == nil {
		return nil
	}
	back := peerProc.Adjacency(name)
	if back == nil {
		return nil
	}
	peerBest := procBest[refKey{peerName, p.Protocol}]
	if peerBest == nil || peerBest.NextHop == name {
		return nil
	}
	adv := Route{Proto: p.Protocol, NextHop: peerName, LocalPref: defaultLP,
		Cost: peerBest.Cost + back.LinkCost(), AD: p.Protocol.AdminDistance()}
	if back.OutFilter != "" {
		if f := peer.RouteFilter(back.OutFilter); f != nil && !applyRouteFilter(f, dst, &adv, false) {
			return nil
		}
	}
	if adj.InFilter != "" {
		if f := s.Net.Routers[name].RouteFilter(adj.InFilter); f != nil && !applyRouteFilter(f, dst, &adv, true) {
			return nil
		}
	}
	return &adv
}

func referencePath(s *Simulator, src, dst prefix.Prefix) ([]string, PathStatus) {
	srcRouter := s.Topo.RouterOfSubnet(src)
	dstRouter := s.Topo.RouterOfSubnet(dst)
	if srcRouter == "" || dstRouter == "" {
		return nil, NoRoute
	}
	routes := referenceRoutes(s, dst)
	path := []string{srcRouter}
	cur := srcRouter
	visited := map[string]bool{srcRouter: true}
	for cur != dstRouter {
		r, ok := routes[cur]
		if !ok || r.NextHop == "" {
			return path, NoRoute
		}
		next := r.NextHop
		if !referenceAllows(s, cur, next, src, dst) {
			return path, Filtered
		}
		if visited[next] {
			return append(path, next), Looped
		}
		visited[next] = true
		path = append(path, next)
		cur = next
	}
	return path, Delivered
}

func referenceAllows(s *Simulator, from, to string, src, dst prefix.Prefix) bool {
	if fr := s.Net.Routers[from]; fr != nil {
		if i := fr.Interface("eth-" + to); i != nil && i.FilterOut != "" {
			if f := fr.PacketFilter(i.FilterOut); f != nil && !f.Allows(src, dst) {
				return false
			}
		}
	}
	if tr := s.Net.Routers[to]; tr != nil {
		if i := tr.Interface("eth-" + from); i != nil && i.FilterIn != "" {
			if f := tr.PacketFilter(i.FilterIn); f != nil && !f.Allows(src, dst) {
				return false
			}
		}
	}
	return true
}

// randomCase builds a random network of 2–7 routers: BGP, OSPF and RIP
// processes; adjacencies with random costs, some one-sided or toward
// unlinked or unknown peers; route filters (some dangling) with lp and
// metric actions; redistribution; statics; packet filters on eth-
// interfaces, duplicated interfaces included; and possibly a disabled
// router. It returns the simulator and a pool of subnets to query.
func randomCase(rng *rand.Rand) (*Simulator, []prefix.Prefix) {
	n := 2 + rng.Intn(6)
	topo := topology.New("rand")
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
		topo.AddRouter(names[i], "")
	}
	for i := 1; i < n; i++ {
		topo.AddLink(names[i], names[rng.Intn(i)])
	}
	for k := rng.Intn(n); k > 0; k-- {
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			topo.AddLink(names[a], names[b])
		}
	}
	pool := []prefix.Prefix{
		prefix.MustParse("10.0.0.0/24"), prefix.MustParse("10.0.1.0/24"),
		prefix.MustParse("10.1.0.0/24"), prefix.MustParse("10.2.0.0/24"),
	}
	covers := append([]prefix.Prefix{{}, prefix.MustParse("10.0.0.0/8"), prefix.MustParse("10.0.0.0/16")}, pool...)
	subnets := make([]prefix.Prefix, 0, len(pool))
	for _, p := range pool {
		if rng.Intn(5) != 0 {
			topo.AddSubnet(names[rng.Intn(n)], p)
			subnets = append(subnets, p)
		}
	}
	protos := []config.Proto{config.BGP, config.OSPF, config.RIP}
	net := config.NewNetwork()
	for _, name := range names {
		if rng.Intn(12) == 0 {
			continue // a topology router with no configuration
		}
		r := &config.Router{Name: name}
		for _, f := range []string{"rfA", "rfB"} {
			if rng.Intn(3) == 0 {
				continue // referenced names may dangle
			}
			rf := &config.RouteFilter{Name: f}
			for k := rng.Intn(4); k > 0; k-- {
				rf.Rules = append(rf.Rules, &config.RouteRule{Permit: rng.Intn(3) != 0,
					Prefix: covers[rng.Intn(len(covers))], LocalPref: rng.Intn(3) * 60, Metric: rng.Intn(3) * 3})
			}
			r.RouteFilters = append(r.RouteFilters, rf)
		}
		if rng.Intn(2) == 0 {
			pf := &config.PacketFilter{Name: "pf"}
			for k := 1 + rng.Intn(2); k > 0; k-- {
				pf.Rules = append(pf.Rules, &config.PacketRule{Permit: rng.Intn(2) == 0,
					Src: covers[rng.Intn(len(covers))], Dst: covers[rng.Intn(len(covers))]})
			}
			r.PacketFilters = append(r.PacketFilters, pf)
		}
		for _, nb := range topo.Neighbors(name) {
			filter := []string{"", "", "pf", "gone"}
			r.Interfaces = append(r.Interfaces, &config.Interface{Name: "eth-" + nb,
				FilterIn: filter[rng.Intn(4)], FilterOut: filter[rng.Intn(4)]})
			if rng.Intn(6) == 0 {
				r.Interfaces = append(r.Interfaces, &config.Interface{Name: "eth-" + nb, FilterOut: "pf"})
			}
		}
		for _, proto := range protos {
			if rng.Intn(3) == 0 {
				continue
			}
			p := &config.Process{Protocol: proto, ID: 1}
			for _, peer := range names {
				if peer == name || (!topo.HasLink(name, peer) && rng.Intn(8) != 0) || rng.Intn(7) == 0 {
					continue
				}
				rfs := []string{"", "", "rfA", "rfB", "gone"}
				p.Adjacencies = append(p.Adjacencies, &config.Adjacency{Peer: peer, Cost: rng.Intn(4),
					InFilter: rfs[rng.Intn(len(rfs))], OutFilter: rfs[rng.Intn(len(rfs))]})
			}
			if rng.Intn(10) == 0 {
				p.Adjacencies = append(p.Adjacencies, &config.Adjacency{Peer: "ghost"})
			}
			for _, sn := range topo.SubnetsOf(name) {
				if rng.Intn(4) != 0 {
					p.Originations = append(p.Originations, &config.Origination{Prefix: sn})
				}
			}
			if rng.Intn(4) == 0 {
				p.Redistribute = append(p.Redistribute, protos[rng.Intn(len(protos))], config.Static)
			}
			r.Processes = append(r.Processes, p)
		}
		for k := rng.Intn(2); k > 0; k-- {
			nh := names[rng.Intn(n)]
			if rng.Intn(5) == 0 {
				nh = "ghost"
			}
			r.StaticRoutes = append(r.StaticRoutes, &config.StaticRoute{Prefix: covers[rng.Intn(len(covers))], NextHop: nh})
		}
		net.Routers[name] = r
	}
	s := New(net, topo)
	if rng.Intn(3) == 0 {
		s.DisabledRouters[names[rng.Intn(n)]] = true
	}
	if rng.Intn(6) == 0 {
		s.DisabledRouters["ghost"] = true
	}
	return s, subnets
}

func checkAgainstReference(t *testing.T, s *Simulator, subnets []prefix.Prefix) {
	t.Helper()
	for _, dst := range subnets {
		if got, want := s.Routes(dst), referenceRoutes(s, dst); !reflect.DeepEqual(got, want) {
			t.Fatalf("Routes(%s) = %v, want %v", dst, got, want)
		}
		for _, src := range subnets {
			gp, gs := s.Path(src, dst)
			wp, ws := referencePath(s, src, dst)
			if gs != ws || !reflect.DeepEqual(gp, wp) {
				t.Fatalf("Path(%s, %s) = %v %s, want %v %s", src, dst, gp, gs, wp, ws)
			}
		}
	}
}

// TestRoutesMatchReference holds the indexed simulator to the map
// fixpoint on random networks and on the configgen fleets.
func TestRoutesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1500; i++ {
		s, subnets := randomCase(rng)
		checkAgainstReference(t, s, subnets)
	}
	for i, topo := range configgen.DatacenterFleet(12, 1) {
		proto := []config.Proto{config.OSPF, config.BGP}[i%2]
		s := New(configgen.Generate(topo, configgen.Options{Protocol: proto, WithRoleFilters: true}), topo)
		var subnets []prefix.Prefix
		for _, sn := range topo.Subnets {
			subnets = append(subnets, sn.Prefix)
		}
		checkAgainstReference(t, s, subnets)
	}
}

func FuzzRoutes(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(20261016))
	f.Fuzz(func(t *testing.T, seed int64) {
		s, subnets := randomCase(rand.New(rand.NewSource(seed)))
		checkAgainstReference(t, s, subnets)
	})
}

// perPair is inference as one Path call per ordered subnet pair.
func perPair(s *Simulator, withBlocking bool) []policy.Policy {
	var subnets []prefix.Prefix
	for _, sn := range s.Topo.Subnets {
		subnets = append(subnets, sn.Prefix)
	}
	prefix.Sort(subnets)
	var out []policy.Policy
	for _, src := range subnets {
		for _, dst := range subnets {
			if src.Equal(dst) {
				continue
			}
			switch _, st := s.Path(src, dst); {
			case st == Delivered:
				out = append(out, policy.Policy{Kind: policy.Reachability, Src: src, Dst: dst})
			case st == Filtered && withBlocking:
				out = append(out, policy.Policy{Kind: policy.Blocking, Src: src, Dst: dst})
			}
		}
	}
	return out
}

// TestInferMatchesPerPair checks that InferReachability and InferAll,
// which converge each destination once, return exactly the per-pair
// result on the configgen fleets and on random networks.
func TestInferMatchesPerPair(t *testing.T) {
	var sims []*Simulator
	for i, topo := range configgen.DatacenterFleet(12, 1) {
		proto := []config.Proto{config.OSPF, config.BGP}[i%2]
		net := configgen.Generate(topo, configgen.Options{Protocol: proto, WithRoleFilters: true})
		// Block one pair so InferAll reports blocking policies too.
		if len(topo.Subnets) > 1 {
			r := net.Routers[topo.Subnets[0].Router]
			r.PacketFilters[0].Rules = append([]*config.PacketRule{{Src: topo.Subnets[1].Prefix, Dst: topo.Subnets[0].Prefix}}, r.PacketFilters[0].Rules...)
		}
		sims = append(sims, New(net, topo))
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		s, _ := randomCase(rng)
		sims = append(sims, s)
	}
	blocking := 0
	for _, s := range sims {
		if got, want := s.InferReachability(), perPair(s, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("InferReachability = %v, want %v", got, want)
		}
		got, want := s.InferAll(), perPair(s, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("InferAll = %v, want %v", got, want)
		}
		for _, p := range got {
			if p.Kind == policy.Blocking {
				blocking++
			}
		}
	}
	if blocking == 0 {
		t.Fatal("no case inferred a blocking policy")
	}
}

// referenceCheck is Check as one fixpoint per path: every policy
// traces its paths with referencePath, and PathPreference's fallback
// runs on a copy of the simulator with Via disabled too.
func referenceCheck(s *Simulator, p policy.Policy) *Violation {
	path, st := referencePath(s, p.Src, p.Dst)
	switch p.Kind {
	case policy.Blocking:
		if st == Delivered {
			return &Violation{p, "traffic delivered"}
		}
		return nil
	case policy.Isolation:
		if st == Delivered {
			return &Violation{p, "forward traffic delivered"}
		}
		if _, st := referencePath(s, p.Dst, p.Src); st == Delivered {
			return &Violation{p, "reverse traffic delivered"}
		}
		return nil
	}
	if st != Delivered {
		return &Violation{p, fmt.Sprintf("%s after %v", st, path)}
	}
	switch p.Kind {
	case policy.Waypoint:
		if !contains(path, p.Via) {
			return &Violation{p, fmt.Sprintf("path %v avoids waypoint %s", path, p.Via)}
		}
	case policy.PathLength:
		if hops := len(path) - 1; hops > p.MaxLen {
			return &Violation{p, fmt.Sprintf("path %v has %d hops, bound %d", path, hops, p.MaxLen)}
		}
	case policy.PathPreference:
		if !contains(path, p.Via) {
			return &Violation{p, fmt.Sprintf("primary path %v avoids preferred transit %s", path, p.Via)}
		}
		alt := &Simulator{Net: s.Net, Topo: s.Topo, DisabledRouters: map[string]bool{p.Via: true}}
		for r := range s.DisabledRouters {
			alt.DisabledRouters[r] = true
		}
		if altPath, altSt := referencePath(alt, p.Src, p.Dst); altSt == Delivered && !contains(altPath, p.Avoid) {
			return &Violation{p, fmt.Sprintf("fallback path %v avoids %s", altPath, p.Avoid)}
		}
	}
	return nil
}

// TestCheckAllMatchesCheck checks that CheckAll, which converges each
// route table once per call, returns exactly the violations of one
// Check per policy, in order, and that both match referenceCheck. The
// networks are random ones and the configgen fleets, whose fabrics
// have the redundant paths a PathPreference fallback takes. The
// policies are random, of every kind, and drawn so that route tables
// are shared: sources and destinations from the subnets and one prefix
// no router owns (Isolation reads both directions), Via and Avoid
// among the routers, a router outside the network and none, and Via
// mostly on the primary path (fallbacks on one destination that
// disable different routers).
func TestCheckAllMatchesCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sims []*Simulator
	for i, topo := range configgen.DatacenterFleet(12, 1) {
		proto := []config.Proto{config.OSPF, config.BGP}[i%2]
		sims = append(sims, New(configgen.Generate(topo, configgen.Options{Protocol: proto, WithRoleFilters: true}), topo))
	}
	for i := 0; i < 400; i++ {
		s, _ := randomCase(rng)
		if rng.Intn(4) == 0 {
			s.DisabledRouters["r0"] = false // listed, not disabled
		}
		sims = append(sims, s)
	}
	kinds := []policy.Kind{policy.Reachability, policy.Blocking, policy.Waypoint,
		policy.PathPreference, policy.Isolation, policy.PathLength}
	violated := map[policy.Kind]int{}
	for i, s := range sims {
		pfx := []prefix.Prefix{prefix.MustParse("10.99.0.0/24")}
		for _, sn := range s.Topo.Subnets {
			pfx = append(pfx, sn.Prefix)
		}
		routers := append(slices.Clone(s.Topo.Routers), "ghost", "")
		ps := make([]policy.Policy, 1+rng.Intn(24))
		for j := range ps {
			ps[j] = policy.Policy{Kind: kinds[rng.Intn(len(kinds))],
				Src: pfx[rng.Intn(len(pfx))], Dst: pfx[rng.Intn(min(len(pfx), 4))],
				Via: routers[rng.Intn(len(routers))], Avoid: routers[rng.Intn(len(routers))],
				MaxLen: rng.Intn(4)}
			if path, _ := s.Path(ps[j].Src, ps[j].Dst); len(path) > 0 && rng.Intn(4) != 0 {
				ps[j].Via = path[rng.Intn(len(path))]
			}
		}
		var want []Violation
		for _, p := range ps {
			v := s.Check(p)
			if ref := referenceCheck(s, p); !reflect.DeepEqual(v, ref) {
				t.Fatalf("case %d: Check(%s) = %v, want %v", i, p, v, ref)
			}
			if v != nil {
				want = append(want, *v)
				violated[p.Kind]++
			}
		}
		if got := s.CheckAll(ps); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: CheckAll = %v, want %v", i, got, want)
		}
	}
	for _, k := range kinds {
		if violated[k] == 0 {
			t.Errorf("no %s policy was ever violated", k)
		}
	}
}
