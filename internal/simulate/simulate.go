// Package simulate is a concrete control-plane simulator: it computes
// the converged routes and forwarding behaviour implied by a set of
// router configurations on a physical topology, mirroring the
// semantics AED encodes symbolically in internal/encode.
//
// The simulator plays two roles from the paper's evaluation: it is the
// stand-in for Minesweeper's policy inference (checking reachability
// between every pair of subnets, §9 "Dataset"), and it independently
// validates that configurations synthesized by AED or the baselines
// actually satisfy the requested policies.
package simulate

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/topology"
)

// Route is a converged routing-table entry for one destination prefix.
type Route struct {
	Proto     config.Proto
	NextHop   string // next-hop router; "" for locally originated
	LocalPref int    // BGP local preference (default 100)
	Cost      int    // accumulated path cost
	AD        int    // administrative distance
}

// better reports whether a is preferred over b within the same
// protocol (BGP: highest lp then lowest cost; others: lowest cost).
func better(p config.Proto, a, b Route) bool {
	if p == config.BGP {
		if a.LocalPref != b.LocalPref {
			return a.LocalPref > b.LocalPref
		}
	}
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	// Deterministic tie-break on next hop keeps runs reproducible.
	return a.NextHop < b.NextHop
}

// Simulator evaluates a configuration snapshot on a topology.
//
// New reads the network's structure — routers, processes,
// adjacencies, filters, statics, interfaces — and the topology's links
// into an index once; queries read only the index. A network or
// topology changed after New therefore needs a new Simulator.
type Simulator struct {
	Net  *config.Network
	Topo *topology.Topology

	// DisabledRouters simulates failures: routers listed here neither
	// forward nor advertise (used by path-preference checking). It is
	// read at every query, so it may be changed after New.
	DisabledRouters map[string]bool

	idx *index
}

// New returns a simulator over the given snapshot.
func New(net *config.Network, topo *topology.Topology) *Simulator {
	return &Simulator{Net: net, Topo: topo, DisabledRouters: map[string]bool{}, idx: newIndex(net, topo)}
}

// index is the simulator's read-only view of a snapshot: routers in
// sorted-name order with every router name, protocol and filter
// reference resolved, so that a query runs over dense arrays.
type index struct {
	names   []string
	pos     map[string]int
	routers []irouter
	protos  int // distinct protocols: the width of a route table row
}

type irouter struct {
	procs   []iproc
	statics []istatic
	// pfOut and pfIn map a peer name to the packet filter of the first
	// interface named "eth-<peer>", outbound and inbound; only filters
	// that resolve are kept (a dangling name filters nothing).
	pfOut, pfIn map[string]*config.PacketFilter
}

type iproc struct {
	p      *config.Process
	col    int   // column of p.Protocol in the route table
	redist []int // columns of the redistributed protocols; -1 if no router runs one
	adjs   []iadj
}

// iadj is one adjacency resolved to the session it forms: the peer's
// position, -1 when no session can form (the peer is missing, has no
// link to us, runs no such process or has no reciprocal adjacency);
// the reciprocal adjacency's cost; and the peer's outbound and the
// local inbound route filters. A filter is nil when none is named or
// when the named filter is missing: both permit everything unchanged.
type iadj struct {
	peer     int
	backCost int
	out, in  *config.RouteFilter
}

type istatic struct {
	st     *config.StaticRoute
	nh     int  // next hop's position, -1 if it is not a router of the network
	linked bool // the topology links the router to the next hop
}

func newIndex(net *config.Network, topo *topology.Topology) *index {
	ix := &index{names: net.RouterNames(), pos: make(map[string]int, len(net.Routers))}
	for i, name := range ix.names {
		ix.pos[name] = i
	}
	cols := make(map[config.Proto]int)
	col := func(p config.Proto, add bool) int {
		c, ok := cols[p]
		if !ok {
			if !add {
				return -1
			}
			c = len(cols)
			cols[p] = c
		}
		return c
	}
	for _, name := range ix.names {
		for _, p := range net.Routers[name].Processes {
			col(p.Protocol, true)
		}
	}
	ix.protos = len(cols)
	ix.routers = make([]irouter, len(ix.names))
	for i, name := range ix.names {
		r := net.Routers[name]
		ir := &ix.routers[i]
		ir.procs = make([]iproc, len(r.Processes))
		for k, p := range r.Processes {
			ip := &ir.procs[k]
			ip.p, ip.col = p, col(p.Protocol, false)
			for _, rd := range p.Redistribute {
				ip.redist = append(ip.redist, col(rd, false))
			}
			ip.adjs = make([]iadj, len(p.Adjacencies))
			for a, adj := range p.Adjacencies {
				ip.adjs[a] = resolveAdj(net, topo, ix, name, r, p, adj)
			}
		}
		for _, st := range r.StaticRoutes {
			nh, ok := ix.pos[st.NextHop]
			if !ok {
				nh = -1
			}
			ir.statics = append(ir.statics, istatic{st: st, nh: nh, linked: topo.HasLink(name, st.NextHop)})
		}
		for _, itf := range r.Interfaces {
			peer, ok := strings.CutPrefix(itf.Name, "eth-")
			if !ok || r.Interface(itf.Name) != itf {
				continue // a later duplicate: lookups find the first
			}
			if f := packetFilter(r, itf.FilterOut); f != nil {
				if ir.pfOut == nil {
					ir.pfOut = make(map[string]*config.PacketFilter)
				}
				ir.pfOut[peer] = f
			}
			if f := packetFilter(r, itf.FilterIn); f != nil {
				if ir.pfIn == nil {
					ir.pfIn = make(map[string]*config.PacketFilter)
				}
				ir.pfIn[peer] = f
			}
		}
	}
	return ix
}

func resolveAdj(net *config.Network, topo *topology.Topology, ix *index,
	name string, r *config.Router, p *config.Process, adj *config.Adjacency) iadj {
	out := iadj{peer: -1}
	peer := net.Routers[adj.Peer]
	if peer == nil || !topo.HasLink(name, adj.Peer) {
		return out
	}
	peerProc := peer.Process(p.Protocol)
	if peerProc == nil {
		return out
	}
	back := peerProc.Adjacency(name)
	if back == nil {
		return out
	}
	out.peer, out.backCost = ix.pos[adj.Peer], back.LinkCost()
	if back.OutFilter != "" {
		out.out = peer.RouteFilter(back.OutFilter)
	}
	if adj.InFilter != "" {
		out.in = r.RouteFilter(adj.InFilter)
	}
	return out
}

func packetFilter(r *config.Router, name string) *config.PacketFilter {
	if name == "" {
		return nil
	}
	return r.PacketFilter(name)
}

// index returns the snapshot index, building it for a Simulator that
// was not made by New.
func (s *Simulator) index() *index {
	if s.idx == nil {
		s.idx = newIndex(s.Net, s.Topo)
	}
	return s.idx
}

// disabled resolves DisabledRouters to positions; nil when none is.
func (s *Simulator) disabled(ix *index) []bool {
	var out []bool
	for name, off := range s.DisabledRouters {
		if i, ok := ix.pos[name]; ok && off {
			if out == nil {
				out = make([]bool, len(ix.names))
			}
			out[i] = true
		}
	}
	return out
}

const defaultLP = 100

// cell is one entry of a route table: a route if ok, plus the next
// hop's position (-1 when local or not a router of the network).
type cell struct {
	Route
	ok bool
	nh int
}

// Routes computes, for each router, the best route toward dst after
// convergence (per-destination fixpoint iteration of receive → select
// → advertise, exactly the loop the paper's Appendix A encodes).
// Routers with no route are absent from the result.
func (s *Simulator) Routes(dst prefix.Prefix) map[string]Route {
	ix := s.index()
	best := s.bests(ix, dst)
	out := make(map[string]Route)
	for i, c := range best {
		if c.ok {
			out[ix.names[i]] = c.Route
		}
	}
	return out
}

// bests returns each router's converged best route toward dst, by
// position. The fixpoint runs over a [router][protocol] table of
// per-process bests in Gauss-Seidel order: routers in sorted-name
// order, each router's processes in configuration order, every update
// visible at once to the routers after it.
func (s *Simulator) bests(ix *index, dst prefix.Prefix) []cell {
	dis := s.disabled(ix)
	w := ix.protos
	tab := make([]cell, len(ix.names)*w)

	// Originations seed the per-process bests.
	for i := range ix.routers {
		if dis != nil && dis[i] {
			continue
		}
		for _, ip := range ix.routers[i].procs {
			if r, ok := originationRoute(ip.p, dst); ok {
				tab[i*w+ip.col] = cell{Route: r, ok: true, nh: -1}
			}
		}
	}

	// Iterate to fixpoint. Each round recomputes every process's best
	// from neighbors' current bests; cost monotonicity bounds the
	// number of rounds by the network diameter.
	maxRounds := 2*len(ix.names) + 4
	for round := 0; round < maxRounds; round++ {
		changed := false
		for i := range ix.routers {
			if dis != nil && dis[i] {
				continue
			}
			name := ix.names[i]
			for k := range ix.routers[i].procs {
				ip := &ix.routers[i].procs[k]
				proto := ip.p.Protocol
				r, ok := originationRoute(ip.p, dst)
				best := cell{Route: r, ok: ok, nh: -1}
				// Redistribution: import the router's other process
				// routes with cost reset.
				for _, c := range ip.redist {
					if c < 0 || !tab[i*w+c].ok {
						continue
					}
					src := &tab[i*w+c]
					cand := Route{
						Proto:     proto,
						NextHop:   src.NextHop,
						LocalPref: defaultLP,
						Cost:      1,
						AD:        proto.AdminDistance(),
					}
					if !best.ok || better(proto, cand, best.Route) {
						best = cell{Route: cand, ok: true, nh: src.nh}
					}
				}
				// Advertisements from neighbors. A disabled peer holds
				// no route, so it advertises nothing.
				for a := range ip.adjs {
					adj := &ip.adjs[a]
					if adj.peer < 0 {
						continue
					}
					if cand, ok := receive(name, ix.names[adj.peer], proto, adj, &tab[adj.peer*w+ip.col], dst); ok &&
						(!best.ok || better(proto, cand, best.Route)) {
						best = cell{Route: cand, ok: true, nh: adj.peer}
					}
				}
				if cur := &tab[i*w+ip.col]; cur.ok != best.ok || cur.Route != best.Route {
					*cur = best
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Router-level selection: lowest AD among processes and statics.
	out := make([]cell, len(ix.names))
	for i := range ix.routers {
		if dis != nil && dis[i] {
			continue
		}
		best := &out[i]
		for _, ip := range ix.routers[i].procs {
			if cand := tab[i*w+ip.col]; cand.ok && (!best.ok || cand.AD < best.AD) {
				*best = cand
			}
		}
		for _, st := range ix.routers[i].statics {
			if !st.st.Prefix.Covers(dst) {
				continue
			}
			if !st.linked || s.DisabledRouters[st.st.NextHop] {
				continue
			}
			cand := Route{Proto: config.Static, NextHop: st.st.NextHop,
				LocalPref: defaultLP, Cost: 1, AD: config.Static.AdminDistance()}
			if !best.ok || cand.AD < best.AD {
				*best = cell{Route: cand, ok: true, nh: st.nh}
			}
		}
	}
	return out
}

// originationRoute returns the local origination route of p for dst.
func originationRoute(p *config.Process, dst prefix.Prefix) (Route, bool) {
	for _, o := range p.Originations {
		if o.Prefix.Covers(dst) {
			return Route{Proto: p.Protocol, LocalPref: defaultLP, Cost: 0,
				AD: p.Protocol.AdminDistance()}, true
		}
	}
	return Route{}, false
}

// receive models router `name`'s process receiving dst's route over
// the resolved session adj from the peer peerName, whose current best
// is peerBest (paper Fig. 15): the peer must hold a valid best route;
// the peer's out filter and the local in filter apply in order.
func receive(name, peerName string, proto config.Proto, adj *iadj, peerBest *cell, dst prefix.Prefix) (Route, bool) {
	// Split-horizon: do not accept a route whose next hop is us.
	if !peerBest.ok || peerBest.NextHop == name {
		return Route{}, false
	}
	adv := Route{
		Proto:     proto,
		NextHop:   peerName,
		LocalPref: defaultLP,
		Cost:      peerBest.Cost + adj.backCost,
		AD:        proto.AdminDistance(),
	}
	// Peer's outbound filter.
	if adj.out != nil && !applyRouteFilter(adj.out, dst, &adv, false) {
		return Route{}, false
	}
	// Local inbound filter (may set local preference).
	if adj.in != nil && !applyRouteFilter(adj.in, dst, &adv, true) {
		return Route{}, false
	}
	return adv, true
}

// applyRouteFilter evaluates filter rules first-match on dst. It
// returns false if the advertisement is denied. Set actions apply on
// permit; local preference only takes effect on inbound application.
func applyRouteFilter(f *config.RouteFilter, dst prefix.Prefix, adv *Route, inbound bool) bool {
	for _, rule := range f.Rules {
		if !rule.Matches(dst) {
			continue
		}
		if !rule.Permit {
			return false
		}
		if inbound && rule.LocalPref != 0 {
			adv.LocalPref = rule.LocalPref
		}
		if rule.Metric != 0 {
			adv.Cost = rule.Metric
		}
		return true
	}
	return true // no matching rule: permit
}

// NextHops returns each router's forwarding next hop toward dst
// (destination router maps to "").
func (s *Simulator) NextHops(dst prefix.Prefix) map[string]string {
	routes := s.Routes(dst)
	out := make(map[string]string, len(routes))
	for name, r := range routes {
		out[name] = r.NextHop
	}
	return out
}

// PathStatus describes the outcome of tracing a forwarding path.
type PathStatus int

// Path outcomes.
const (
	// Delivered: traffic reaches the destination subnet's router.
	Delivered PathStatus = iota
	// Filtered: a packet filter drops the traffic.
	Filtered
	// NoRoute: some router on the way has no route (blackhole).
	NoRoute
	// Looped: forwarding loops.
	Looped
)

func (p PathStatus) String() string {
	switch p {
	case Delivered:
		return "delivered"
	case Filtered:
		return "filtered"
	case NoRoute:
		return "no-route"
	case Looped:
		return "looped"
	}
	return "unknown"
}

// Path traces the data-plane path for traffic from the src subnet to
// the dst subnet. It returns the sequence of routers traversed
// (starting at src's router) and the outcome. Packet filters apply on
// the sender's outbound interface and the receiver's inbound interface
// for every hop (paper Fig. 17: dataFwd = controlFwd ∧ pFil.allow).
func (s *Simulator) Path(src, dst prefix.Prefix) ([]string, PathStatus) {
	return checker{s: s}.path(src, routeKey{dst: dst})
}

// trace follows the converged bests toward dstRouter from srcRouter.
func trace(ix *index, best []cell, srcRouter, dstRouter string, src, dst prefix.Prefix) ([]string, PathStatus) {
	path := []string{srcRouter}
	cur := srcRouter
	ci, ok := ix.pos[srcRouter]
	if !ok {
		ci = -1
	}
	var visitedBuf [16]int
	visited := append(visitedBuf[:0], ci)
	for cur != dstRouter {
		// A router outside the network, or one without a route, is a
		// blackhole.
		if ci < 0 || !best[ci].ok || best[ci].NextHop == "" {
			return path, NoRoute
		}
		next, ni := best[ci].NextHop, best[ci].nh
		if !allowsPacket(ix, ci, next, ni, src, dst) {
			return path, Filtered
		}
		// A next hop outside the network ends the trace at the next
		// step, so only positions can repeat.
		if ni >= 0 && slices.Contains(visited, ni) {
			return append(path, next), Looped
		}
		visited = append(visited, ni)
		path = append(path, next)
		cur, ci = next, ni
	}
	return path, Delivered
}

// allowsPacket checks the packet filters on the from→to hop: from's
// outbound filter on interface eth-<to> and to's inbound filter on
// interface eth-<from>. from is a position; to is a name and its
// position, -1 if it is not a router of the network.
func allowsPacket(ix *index, from int, to string, toPos int, src, dst prefix.Prefix) bool {
	if f := ix.routers[from].pfOut[to]; f != nil && !f.Allows(src, dst) {
		return false
	}
	if toPos >= 0 {
		if f := ix.routers[toPos].pfIn[ix.names[from]]; f != nil && !f.Allows(src, dst) {
			return false
		}
	}
	return true
}

// Violation describes a policy the current snapshot does not satisfy.
type Violation struct {
	Policy policy.Policy
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Policy, v.Reason)
}

// Check evaluates a single policy, returning nil if satisfied.
func (s *Simulator) Check(p policy.Policy) *Violation {
	return checker{s: s}.check(p)
}

// CheckAll evaluates a policy set and returns all violations, in
// policy order. Each route table the policies read converges once per
// call, however many policies share it.
func (s *Simulator) CheckAll(ps []policy.Policy) []Violation {
	c := checker{s: s, tables: map[routeKey][]cell{}}
	var out []Violation
	for _, p := range ps {
		if v := c.check(p); v != nil {
			out = append(out, *v)
		}
	}
	return out
}

// routeKey names a converged route table: its destination, and for a
// PathPreference fallback (alt), the transit router it disables on top
// of DisabledRouters.
type routeKey struct {
	dst prefix.Prefix
	alt bool
	via string
}

// checker evaluates policies against s. With tables non-nil it keeps
// every route table it converges, for the later policies that read it.
type checker struct {
	s      *Simulator
	tables map[routeKey][]cell
}

// path traces src → k.dst, as Path does, over the route table k names.
func (c checker) path(src prefix.Prefix, k routeKey) ([]string, PathStatus) {
	s, dst := c.s, k.dst
	srcRouter := s.Topo.RouterOfSubnet(src)
	dstRouter := s.Topo.RouterOfSubnet(dst)
	if srcRouter == "" || dstRouter == "" {
		return nil, NoRoute
	}
	ix := s.index()
	best, ok := c.tables[k]
	if !ok {
		sim := s
		if k.alt {
			sim = &Simulator{Net: s.Net, Topo: s.Topo,
				DisabledRouters: map[string]bool{k.via: true}, idx: ix}
			for r := range s.DisabledRouters {
				sim.DisabledRouters[r] = true
			}
		}
		best = sim.bests(ix, dst)
		if c.tables != nil {
			c.tables[k] = best
		}
	}
	return trace(ix, best, srcRouter, dstRouter, src, dst)
}

func (c checker) check(p policy.Policy) *Violation {
	fwd := routeKey{dst: p.Dst}
	switch p.Kind {
	case policy.Reachability:
		path, st := c.path(p.Src, fwd)
		if st != Delivered {
			return &Violation{p, fmt.Sprintf("%s after %v", st, path)}
		}
	case policy.Blocking:
		if _, st := c.path(p.Src, fwd); st == Delivered {
			return &Violation{p, "traffic delivered"}
		}
	case policy.Isolation:
		if _, st := c.path(p.Src, fwd); st == Delivered {
			return &Violation{p, "forward traffic delivered"}
		}
		if _, st := c.path(p.Dst, routeKey{dst: p.Src}); st == Delivered {
			return &Violation{p, "reverse traffic delivered"}
		}
	case policy.Waypoint:
		path, st := c.path(p.Src, fwd)
		if st != Delivered {
			return &Violation{p, fmt.Sprintf("%s after %v", st, path)}
		}
		if !contains(path, p.Via) {
			return &Violation{p, fmt.Sprintf("path %v avoids waypoint %s", path, p.Via)}
		}
	case policy.PathLength:
		path, st := c.path(p.Src, fwd)
		if st != Delivered {
			return &Violation{p, fmt.Sprintf("%s after %v", st, path)}
		}
		if hops := len(path) - 1; hops > p.MaxLen {
			return &Violation{p, fmt.Sprintf("path %v has %d hops, bound %d", path, hops, p.MaxLen)}
		}
	case policy.PathPreference:
		path, st := c.path(p.Src, fwd)
		if st != Delivered {
			return &Violation{p, fmt.Sprintf("%s after %v", st, path)}
		}
		if !contains(path, p.Via) {
			return &Violation{p, fmt.Sprintf("primary path %v avoids preferred transit %s", path, p.Via)}
		}
		// With the preferred transit down, the fallback must engage.
		altPath, altSt := c.path(p.Src, routeKey{dst: p.Dst, alt: true, via: p.Via})
		if altSt == Delivered && !contains(altPath, p.Avoid) {
			return &Violation{p, fmt.Sprintf("fallback path %v avoids %s", altPath, p.Avoid)}
		}
	}
	return nil
}

// InferReachability computes the reachability policies that currently
// hold between every ordered pair of distinct subnets — the role
// Minesweeper plays in the paper's dataset preparation.
func (s *Simulator) InferReachability() []policy.Policy {
	subnets, status := s.inferStatus()
	var out []policy.Policy
	for i, src := range subnets {
		for j, dst := range subnets {
			if !src.Equal(dst) && status[i][j] == Delivered {
				out = append(out, policy.Policy{Kind: policy.Reachability, Src: src, Dst: dst})
			}
		}
	}
	return out
}

// InferAll returns both reachability policies that hold and blocking
// policies for pairs that are filtered (not merely unrouted).
func (s *Simulator) InferAll() []policy.Policy {
	subnets, status := s.inferStatus()
	var out []policy.Policy
	for i, src := range subnets {
		for j, dst := range subnets {
			if src.Equal(dst) {
				continue
			}
			switch status[i][j] {
			case Delivered:
				out = append(out, policy.Policy{Kind: policy.Reachability, Src: src, Dst: dst})
			case Filtered:
				out = append(out, policy.Policy{Kind: policy.Blocking, Src: src, Dst: dst})
			}
		}
	}
	return out
}

// inferStatus returns the topology's subnets in sorted order and the
// Path status of every ordered pair, status[src][dst]. Each
// destination's routes converge once and every source traces against
// them, rather than one fixpoint per pair.
func (s *Simulator) inferStatus() ([]prefix.Prefix, [][]PathStatus) {
	var subnets []prefix.Prefix
	for _, sn := range s.Topo.Subnets {
		subnets = append(subnets, sn.Prefix)
	}
	prefix.Sort(subnets)
	owner := make([]string, len(subnets))
	for i, sn := range subnets {
		owner[i] = s.Topo.RouterOfSubnet(sn)
	}
	status := make([][]PathStatus, len(subnets))
	for i := range status {
		status[i] = make([]PathStatus, len(subnets))
	}
	ix := s.index()
	for j, dst := range subnets {
		var best []cell
		for i, src := range subnets {
			if src.Equal(dst) {
				continue
			}
			if owner[i] == "" || owner[j] == "" {
				status[i][j] = NoRoute
				continue
			}
			if best == nil {
				best = s.bests(ix, dst)
			}
			_, status[i][j] = trace(ix, best, owner[i], owner[j], src, dst)
		}
	}
	return subnets, status
}

func contains(path []string, router string) bool {
	for _, r := range path {
		if r == router {
			return true
		}
	}
	return false
}

// ForwardingTable renders the next-hop table for dst, for debugging.
func (s *Simulator) ForwardingTable(dst prefix.Prefix) string {
	hops := s.NextHops(dst)
	names := make([]string, 0, len(hops))
	for n := range hops {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		nh := hops[n]
		if nh == "" {
			nh = "(local)"
		}
		out += fmt.Sprintf("%s -> %s\n", n, nh)
	}
	return out
}
