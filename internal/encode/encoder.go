package encode

import (
	"fmt"
	"sort"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/sat"
	"github.com/aed-net/aed/internal/smt"
	"github.com/aed-net/aed/internal/topology"
)

// Options tune the encoding; the zero value corresponds to the paper's
// fully-optimized AED (per-destination split instances with pruning
// and the boolean rank encoding). The flags exist so the §9.3
// experiments can measure each optimization in isolation, and each is
// phrased so that false selects the paper default.
type Options struct {
	// NoPrune keeps route/packet-filter conditionals (and their delta
	// variables) that cannot affect the instance's traffic classes.
	// The default (false) prunes them (§8 "Pruning irrelevant
	// configuration").
	NoPrune bool
	// WideIntegers disables the boolean rank encoding for local
	// preference and instead uses a wide 0..255 domain (§8 "Replacing
	// integer variables with booleans", inverted for ablation).
	WideIntegers bool
}

// DefaultOptions returns the paper's optimized configuration. Since
// the Options redesign it is a documented alias for the zero value.
func DefaultOptions() Options { return Options{} }

// Encoder builds the MaxSMT problem for one group of policies sharing
// a destination prefix (one per-destination instance, §8). Use one
// Encoder per instance; instances are independent and can be solved in
// parallel.
type Encoder struct {
	Ctx  *smt.Context
	net  *config.Network
	topo *topology.Topology
	opts Options

	reg *registry

	// span, when set by Observe, parents this instance's solve/extract
	// telemetry spans.
	span *obs.Span

	dst       prefix.Prefix
	dstRouter string

	// lpDomain is the candidate local-preference value set (rank
	// encoding or wide), shared by all lp variables of the instance.
	lpDomain []int
	maxCost  int

	// joint marks a copy inside a monolithic encoding that shares delta
	// variables across all destination copies (the Fig. 14 baseline);
	// NewJoint's AddGroup sets it. A New encoder is a per-destination
	// split instance (§8 "Grouping policies based on a destination
	// address"): deltas that would affect traffic of other destinations
	// — adjacency removals, removals/flips of filter rules whose match
	// range covers other subnets — are suppressed, so independently
	// solved instances cannot conflict: every remaining update mechanism
	// is specific to this instance's prefix.
	joint bool

	// envs holds one control-plane copy per environment. envs[0] is
	// the normal network; additional environments model single-router
	// failures for path-preference policies.
	envs map[string]*env

	// adjacency caches per (router,proto,peer) the literal "this
	// directed adjacency side is configured", shared across envs.
	adjSide map[adjKey]sat.Lit

	// pfAllowCache caches packet filter hop literals per (src, u, v).
	pfAllowCache map[hopKey]sat.Lit
	// pfChainCache caches packet-filter chain outcomes per
	// (router, filter, src): a named filter attached to several
	// interfaces must be one consistent symbolic object — its added
	// rule and action apply everywhere the filter does.
	pfChainCache map[pfChainKey]sat.Lit
	// rfChainCache likewise caches route-filter chains per
	// (router, filter, direction): a filter referenced by several
	// adjacencies shares its rule deltas and symbolic actions.
	rfChainCache map[rfChainKey]rfChain

	// ruleBind holds, per encoded route-filter rule, the retractable
	// binding of its volatile attributes (action, local preference) so
	// Rebind can retarget the live encoding at an edited configuration
	// without rebuilding it (see rebind.go).
	ruleBind map[ruleKey]*ruleBinding

	// pendingRedist defers redistribution wiring within a router.
	pendingRedist []redistLink

	// guards, set by EncodeRetractable, holds the retractable guard of
	// every policy the instance has encoded, keyed by policyKey, so
	// Retarget can follow a policy edit (see retarget.go). Nil for an
	// instance encoded by EncodePolicies.
	guards map[policy.Policy]*policyGuard
}

// Cache keys. A chain over a filter the configuration lacks (filter
// "") is keyed by where the encoder would attach it — the interface or
// the peer — instead of by the virtual filter's generated name, so a
// lookup formats nothing.
type (
	adjKey struct {
		router string
		proto  config.Proto
		peer   string
	}
	hopKey struct {
		src  prefix.Prefix
		u, v string
	}
	pfChainKey struct {
		router, filter, iface string // iface only when filter == ""
		src                   prefix.Prefix
		inbound               bool
	}
	rfChainKey struct {
		router, filter, peer, dir string // peer only when filter == ""
		withLP                    bool
	}
)

// rfChain is a memoized route-filter evaluation.
type rfChain struct {
	allow sat.Lit
	lp    *smt.IntVar
}

// env is one copy of the symbolic control plane: all routers up except
// the named failed router.
type env struct {
	failed string
	// per (router|proto): best-route record.
	bestValid map[string]sat.Lit
	bestCost  map[string]*smt.NatVar
	bestLP    map[string]*smt.IntVar
	// controlFwd per directed link "u>v".
	controlFwd map[string]sat.Lit
	// selPeer records, per process key, the literals "this process's
	// best route points at peer".
	selPeer map[string]map[string]sat.Lit
	// reach/vis per (src traffic class|router), built lazily.
	reach map[string]sat.Lit
	vis   map[string]sat.Lit
}

// New prepares an encoder for one destination group.
func New(net *config.Network, topo *topology.Topology, dst prefix.Prefix, opts Options) *Encoder {
	ctx := smt.NewContext()
	e := &Encoder{
		Ctx:          ctx,
		net:          net,
		topo:         topo,
		opts:         opts,
		reg:          newRegistry(ctx),
		dst:          dst,
		dstRouter:    topo.RouterOfSubnet(dst),
		envs:         make(map[string]*env),
		adjSide:      make(map[adjKey]sat.Lit),
		pfAllowCache: make(map[hopKey]sat.Lit),
		pfChainCache: make(map[pfChainKey]sat.Lit),
		rfChainCache: make(map[rfChainKey]rfChain),
		ruleBind:     make(map[ruleKey]*ruleBinding),
		maxCost:      costBound(net),
	}
	e.lpDomain = e.buildLPDomain()
	return e
}

// costBound bounds the cost domain of net's instances by hop count: the
// longest useful path visits each router at most once, capped to keep
// order encodings small.
func costBound(net *config.Network) int {
	return min(len(net.Routers)+2, 40)
}

// Park readies a solved instance for its life as a live instance
// (kept between solves for tier-2 re-solves, see rebind.go and
// retarget.go). It releases what only encoding reads — the environment
// copies, the adjacency and filter-chain caches and the delta
// registry's name index — then parks the SMT context (smt.Context.Park),
// which compacts the solver. It also drops the aux deltas (Delta.Aux)
// from the delta list: only objectives read them, and a live instance
// has none (see core's keepsLive), so Deltas returns the structural
// deltas alone after Park, while a re-solve's Result.NumDeltas still
// reports the count at encode time. What Rebind, Retarget and
// ReSolveContext read stays: the context, the network, the options, the
// destination, the local-preference domain, the rule bindings, the
// policy guards and the structural deltas with their ValueOf closures.
// Each release shows in the heap a parked edit_stream session retains
// (TestParkedSessionBytes, 8.72 MB): keeping the registry's name index
// and aux deltas would add 2.44 MB, the route-filter chains (their lp
// IntVars) 0.45 MB, the environments 0.20 MB, the packet-filter hop
// cache 0.11 MB, the adjacency cache 0.08 MB and the packet-filter
// chains 0.04 MB.
//
// A later Park, after a re-solve, compacts the solver again if the
// re-solve grew it and does nothing otherwise. The encoder must not encode
// (EncodePolicies, AddObjectives, PenalizeDeltas) after Park.
func (e *Encoder) Park() {
	e.envs = nil
	e.adjSide = nil
	e.pfAllowCache = nil
	e.pfChainCache = nil
	e.rfChainCache = nil
	e.reg.park()
	e.Ctx.Park()
}

// Observe attaches this instance's telemetry: span parents the
// encoder's solve/extract spans, and the SMT context streams solver
// counters and latencies into reg. A nil span and registry (the
// default) keep the instance unobserved at zero cost.
func (e *Encoder) Observe(span *obs.Span, reg *obs.Registry) {
	e.span = span
	e.Ctx.Observe(reg, span)
}

// buildLPDomain collects the distinct local-preference values in the
// configurations and policies' reach, then rank-expands them to the
// paper's (2n+1) choices — or the wide 0..255 domain for the ablation.
func (e *Encoder) buildLPDomain() []int {
	if e.opts.WideIntegers {
		d := make([]int, 256)
		for i := range d {
			d[i] = i
		}
		return d
	}
	seen := map[int]bool{100: true} // default lp
	for _, r := range e.net.Routers {
		for _, f := range r.RouteFilters {
			for _, rule := range f.Rules {
				if rule.LocalPref != 0 {
					seen[rule.LocalPref] = true
				}
			}
		}
	}
	vals := make([]int, 0, len(seen))
	for v := range seen {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	// Rank expansion: below the minimum, between consecutive values,
	// above the maximum (2n+1 total).
	out := []int{}
	if vals[0] > 0 {
		out = append(out, vals[0]/2)
	} else {
		out = append(out, 0)
	}
	for i, v := range vals {
		out = append(out, v)
		if i+1 < len(vals) {
			out = append(out, (v+vals[i+1])/2)
		}
	}
	out = append(out, vals[len(vals)-1]+50)
	// Dedup (midpoints can collide with values).
	sort.Ints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// Deltas returns every delta variable created so far.
func (e *Encoder) Deltas() []*Delta { return e.reg.all() }

// coversOtherSubnet reports whether p covers or overlaps a host subnet
// other than this instance's destination — the broadness test behind
// split-mode delta suppression.
func (e *Encoder) coversOtherSubnet(p prefix.Prefix) bool {
	for _, sn := range e.topo.Subnets {
		if sn.Prefix.Equal(e.dst) {
			continue
		}
		if p.Overlaps(sn.Prefix) {
			return true
		}
	}
	return false
}

// LPDomain exposes the local-preference candidate set (for tests).
func (e *Encoder) LPDomain() []int { return append([]int(nil), e.lpDomain...) }

// EncodePolicies adds hard constraints for the group's policies. All
// policies must target e's destination prefix.
//
// Reachability/blocking assert the delivery bit of the traffic class;
// waypointing additionally asserts the on-path bit of the transit; and
// path preference encodes a second control-plane copy in which the
// preferred transit has failed — the fallback must still deliver and
// must transit the less-preferred router ("a less-preferred path is
// taken only when a more-preferred path is unavailable", §9.2).
func (e *Encoder) EncodePolicies(ps []policy.Policy) error {
	for _, p := range ps {
		if err := e.encodeGuarded(p, nil); err != nil {
			return err
		}
	}
	return nil
}

// environment returns (building on first use) the control-plane copy
// with the given router failed ("" = normal operation).
func (e *Encoder) environment(failed string) *env {
	if v, ok := e.envs[failed]; ok {
		return v
	}
	v := &env{
		failed:     failed,
		bestValid:  make(map[string]sat.Lit),
		bestCost:   make(map[string]*smt.NatVar),
		bestLP:     make(map[string]*smt.IntVar),
		controlFwd: make(map[string]sat.Lit),
		selPeer:    make(map[string]map[string]sat.Lit),
		reach:      make(map[string]sat.Lit),
		vis:        make(map[string]sat.Lit),
	}
	e.envs[failed] = v
	e.encodeControlPlane(v)
	return v
}

// procLabel keys per-process records.
func procLabel(router string, p config.Proto) string {
	return router + "|" + p.String()
}

// candidate is one source a process can select its best route from.
type candidate struct {
	name  string // tie-break order key
	valid sat.Lit
	// cost of the route if selected: base NatVar + offset, or a
	// constant (constNat >= 0 with nat == nil).
	nat      *smt.NatVar
	natOff   int
	constNat int
	// lp of the route if selected (BGP only; nil = default 100).
	lp      *smt.IntVar
	constLP int
	// peer is the next-hop router ("" for origination/redistribution).
	peer string
}

// encodeControlPlane builds the per-process best-route fixpoint
// constraints for every router in environment v (Appendix A).
func (e *Encoder) encodeControlPlane(v *env) {
	routers := e.net.RouterNames()

	// Allocate best records first (receive constraints reference
	// neighbors' bests).
	for _, name := range routers {
		r := e.net.Routers[name]
		for _, p := range r.Processes {
			key := procLabel(name, p.Protocol)
			v.bestValid[key] = e.Ctx.BoolVar()
			v.bestCost[key] = e.Ctx.NatVarOf(e.maxCost)
			if p.Protocol == config.BGP {
				v.bestLP[key] = e.Ctx.IntVarOf(e.lpDomain)
			}
		}
	}

	for _, name := range routers {
		r := e.net.Routers[name]
		for _, p := range r.Processes {
			e.encodeProcess(v, r, p)
		}
		e.resolveRedistribution()
		e.encodeRouterSelection(v, r)
	}

	// Loop freedom at the forwarding level: protocol routes are
	// already loop-free through the cost equations, but static routes
	// and redistribution cost resets bypass them; without a global
	// acyclicity witness the reach fixpoint admits self-supporting
	// loops. A rank variable per router, strictly decreasing along
	// every active forwarding edge, excludes them.
	rank := make(map[string]*smt.NatVar, len(routers))
	for _, name := range routers {
		rank[name] = e.Ctx.NatVarOf(e.maxCost)
	}
	for _, name := range routers {
		for _, peer := range e.topo.Neighbors(name) {
			fwd, ok := v.controlFwd[name+">"+peer]
			if !ok || fwd == e.Ctx.False() {
				continue
			}
			e.Ctx.AssertLeUnder([]sat.Lit{fwd}, rank[peer], 1, rank[name], 0)
		}
	}
}

// encodeProcess constrains one process's best record to be the most
// preferred valid candidate (origination, redistribution, or a
// neighbor advertisement passed by the filters).
func (e *Encoder) encodeProcess(v *env, r *config.Router, p *config.Process) {
	key := procLabel(r.Name, p.Protocol)
	bestValid := v.bestValid[key]

	// A failed router has no valid routes at all. Its candidates need
	// no encoding: their deltas and filter chains are the normal
	// environment's, which every failure environment is built after.
	if r.Name == v.failed {
		e.Ctx.Clause(bestValid.Neg())
		v.selPeer[key] = map[string]sat.Lit{}
		return
	}

	// Origination: valid iff some origination covering dst survives
	// (¬rm), or the potential dst-origination is added.
	cands := []candidate{{
		name: "", valid: e.originationLit(r, p), constNat: 0, constLP: 100,
	}}

	// Redistribution from sibling processes (cost resets to 1).
	for _, redistProto := range p.Redistribute {
		if src := r.Process(redistProto); src != nil {
			srcKey := procLabel(r.Name, redistProto)
			cands = append(cands, candidate{
				name:     "\x01redist-" + redistProto.String(),
				valid:    v.bestValid[srcKey],
				constNat: 1,
				constLP:  100,
				peer:     "", // next hop resolved by the source process; see below
			})
		}
	}

	// Neighbor advertisements: existing adjacencies plus potential
	// new adjacencies to physical neighbors running the protocol.
	for _, peer := range e.topo.Neighbors(r.Name) {
		pr := e.net.Routers[peer]
		if pr == nil || pr.Process(p.Protocol) == nil {
			continue
		}
		cands = append(cands, e.advertisementCandidate(v, r, p, peer))
	}

	// The best record is valid exactly when some candidate is, and
	// then one candidate is selected: sel_i ⇒ candidate valid and best
	// fields equal its fields, each binding a clause under sel_i. The
	// preference (assertPreference) makes the selection the most
	// preferred valid candidate, and at most one.
	valid := make([]sat.Lit, len(cands))
	sels := make([]sat.Lit, len(cands))
	for i, c := range cands {
		valid[i] = c.valid
		sels[i] = e.Ctx.BoolVar()
	}
	e.Ctx.DefineOr(bestValid, valid...)
	e.Ctx.DefineOr(bestValid, sels...)
	var lp *lpComparer // nil outside BGP
	if p.Protocol == config.BGP {
		lp = &lpComparer{ctx: e.Ctx, best: v.bestLP[key], memo: map[lpKey]sat.Lit{}}
	}
	cost := v.bestCost[key]
	peerSel := make(map[string]sat.Lit)
	for i, c := range cands {
		sel := sels[i : i+1]
		e.Ctx.ClauseUnder(sel, c.valid)
		// Bind best fields.
		if c.nat == nil {
			e.Ctx.ClauseUnder(sel, cost.GeConst(c.constNat))
			e.Ctx.ClauseUnder(sel, cost.LeConst(c.constNat))
		} else {
			e.Ctx.AssertEqUnder(sel, cost, c.nat, c.natOff)
		}
		if lp != nil {
			lp.assertEq(sel, c)
		}
		switch {
		case c.peer != "":
			peerSel[c.peer] = sels[i]
		case c.name == "":
			// Origination candidate: delivered here, forwarded nowhere.
		default:
			// Redistribution: forward through the source process's own
			// selection (resolved in a second pass by
			// resolveRedistribution, since the source process may not
			// be encoded yet).
			e.pendingRedist = append(e.pendingRedist, redistLink{
				env: v, router: r.Name, key: key, sel: sels[i],
				srcKey: procLabel(r.Name, redistProtoOf(c.name)),
			})
		}
	}
	e.assertPreference(cands, sels, cost, lp)
	v.selPeer[key] = peerSel
}

// assertPreference makes the best record (cost best, local preference
// compared by lp, nil outside BGP) the most preferred valid candidate:
// BGP prefers the higher local preference, then the lower cost; the
// other protocols the lower cost. Ties go to the earlier candidate in name
// order, the simulator's tie-break.
//
// Appendix A states this pairwise: sel_i ∧ valid_o → c_i is preferred
// over o, strictly when o precedes c_i in name order, which is O(k²)
// constraints for k candidates. Every selection binds the best record
// to its candidate's fields, and a valid candidate makes one selected,
// so two constraints per candidate o, stated against the best record,
// have the same models:
//
//   - valid_o → the best record is no worse than o;
//   - valid_o ∧ ¬(a candidate up to o in name order is selected) → the
//     best record is strictly better than o.
//
// "A candidate up to o is selected" is the first candidate's selector,
// then a variable per candidate defined as o's selector or the previous
// one's, so the preference costs O(k) constraints. The same chain
// states that at most one candidate is selected, also in O(k): sel_o →
// no candidate before o is selected. A candidate that can never be
// valid is never selected and takes no part.
func (e *Encoder) assertPreference(cands []candidate, sels []sat.Lit, best *smt.NatVar, lp *lpComparer) {
	order := make([]int, 0, len(cands))
	for i, c := range cands {
		if c.valid != e.Ctx.False() {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(x, y int) bool { return cands[order[x]].name < cands[order[y]].name })
	var upTo sat.Lit // a candidate before o is selected
	for n, i := range order {
		o := cands[i]
		if n > 0 {
			e.Ctx.Clause(sels[i].Neg(), upTo.Neg())
		}
		// For BGP, "higher local preference, or equal and no costlier"
		// is lp(best) >= lp(o), and the cost comparison unless
		// lp(best) > lp(o); the strict preference differs in the cost
		// comparison only.
		guard := []sat.Lit{o.valid}
		if lp != nil {
			e.Ctx.Clause(o.valid.Neg(), lp.cmp(o, lpGe))
			guard = append(guard, lp.cmp(o, lpGt).Neg())
		}
		e.assertCostLe(guard, best, 0, o)
		if n == len(order)-1 {
			break // no candidate comes after the last
		}
		if n == 0 {
			upTo = sels[i]
		} else {
			s := e.Ctx.BoolVar()
			e.Ctx.DefineOr(s, sels[i], upTo)
			upTo = s
		}
		e.assertCostLe(append(guard, upTo.Neg()), best, 1, o)
	}
}

// assertCostLe asserts g₁ ∧ … ∧ gₙ → best + d <= the cost of candidate o.
func (e *Encoder) assertCostLe(g []sat.Lit, best *smt.NatVar, d int, o candidate) {
	if o.nat == nil {
		e.Ctx.ClauseUnder(g, best.LeConst(o.constNat-d))
		return
	}
	e.Ctx.AssertLeUnder(g, best, d, o.nat, o.natOff)
}

// redistLink defers wiring a redistribution candidate's forwarding
// behaviour until all processes of the router are encoded.
type redistLink struct {
	env                 *env
	router, key, srcKey string
	sel                 sat.Lit
}

// redistProtoOf recovers the protocol from a redistribution candidate
// name ("\x01redist-<proto>").
func redistProtoOf(name string) config.Proto {
	switch name[len("\x01redist-"):] {
	case "bgp":
		return config.BGP
	case "ospf":
		return config.OSPF
	case "rip":
		return config.RIP
	}
	return config.Static
}

// resolveRedistribution folds deferred redistribution selections into
// selPeer: selecting a redistributed route forwards wherever the
// source process's best points.
func (e *Encoder) resolveRedistribution() {
	for _, rl := range e.pendingRedist {
		src := rl.env.selPeer[rl.srcKey]
		dst := rl.env.selPeer[rl.key]
		for _, peer := range e.topo.Neighbors(rl.router) {
			f, ok := src[peer]
			if !ok {
				continue
			}
			via := e.Ctx.And(rl.sel, f)
			if cur, ok := dst[peer]; ok {
				via = e.Ctx.Or(cur, via)
			}
			dst[peer] = via
		}
	}
	e.pendingRedist = nil
}

// advertisementCandidate models r's process p receiving dst's route
// from peer (paper Fig. 15 plus the Fig. 5 filter encoding).
func (e *Encoder) advertisementCandidate(v *env, r *config.Router, p *config.Process, peer string) candidate {
	peerR := e.net.Routers[peer]
	peerProc := peerR.Process(p.Protocol)
	peerKey := procLabel(peer, p.Protocol)

	// Both adjacency sides must be configured (existing ∧ ¬rm, or
	// potential ∧ add), the link active, and the peer's best valid.
	side := e.adjacencySide(r, p, peer)
	backSide := e.adjacencySide(peerR, peerProc, r.Name)
	peerValid := v.bestValid[peerKey]
	if peer == v.failed {
		peerValid = e.Ctx.False()
	}

	// Filters: the peer's out-filter toward us, then our in-filter.
	outAllow := e.routeFilterAllow(peerR, peerProc.Adjacency(r.Name), peer, r.Name, false)
	inAllow, lpVar := e.routeFilterInbound(r, p, peer)

	valid := e.Ctx.And(side, backSide, peerValid, outAllow, inAllow)

	linkCost := 1
	if adj := p.Adjacency(peer); adj != nil {
		linkCost = adj.LinkCost()
	}
	return candidate{
		name:   peer,
		valid:  valid,
		nat:    v.bestCost[peerKey],
		natOff: linkCost,
		lp:     lpVar,
		peer:   peer,
	}
}

// lpConst returns the local preference of a candidate without an lp
// variable: its constant, or the default 100.
func (c candidate) lpConst() int {
	if c.constLP == 0 {
		return 100
	}
	return c.constLP
}

// lpRel is how lpComparer.cmp relates the best record's local
// preference to a candidate's.
type lpRel int8

const (
	lpGe lpRel = iota // at least
	lpGt              // greater
)

// lpKey names one comparison of a process's best local preference:
// the candidate's lp variable and the relation.
type lpKey struct {
	lp  *smt.IntVar
	rel lpRel
}

// lpComparer builds the comparisons of one process's best local
// preference with its candidates'. A comparison with a candidate's lp
// variable is built once and kept in memo: a named inbound filter hands
// the same variable to every peer it filters. A comparison with a
// constant, and the inner Ors of a comparison with a variable, are the
// IntVars' shared thresholds.
type lpComparer struct {
	ctx  *smt.Context
	best *smt.IntVar
	memo map[lpKey]sat.Lit
}

// cmp returns the literal lp(best) rel lp(o) over the one-hot local
// preferences.
func (l *lpComparer) cmp(o candidate, rel lpRel) sat.Lit {
	if o.lp == nil {
		if rel == lpGe {
			return l.best.GeConst(o.lpConst())
		}
		return l.best.GtConst(o.lpConst())
	}
	k := lpKey{o.lp, rel}
	if f, ok := l.memo[k]; ok {
		return f
	}
	f := smt.IntGt(l.best, o.lp)
	if rel == lpGe {
		f = smt.IntGe(l.best, o.lp)
	}
	l.memo[k] = f
	return f
}

// assertEq asserts, under the guard g, that the best local preference
// equals candidate o's: its constant's indicator, or o's lp variable
// value by value (smt.Context.AssertIntEqUnder).
func (l *lpComparer) assertEq(g []sat.Lit, o candidate) {
	if o.lp == nil {
		l.ctx.ClauseUnder(g, l.best.EqConst(o.lpConst()))
		return
	}
	l.ctx.AssertIntEqUnder(g, l.best, o.lp)
}

// encodeRouterSelection builds controlFwd for one router: the process
// (or static route) with the lowest administrative distance wins
// (statics 1, BGP 20, OSPF 110 — constants in our dialect, so the
// cross-protocol choice is a fixed priority chain).
func (e *Encoder) encodeRouterSelection(v *env, r *config.Router) {
	if r.Name == v.failed {
		for _, peer := range e.topo.Neighbors(r.Name) {
			v.controlFwd[r.Name+">"+peer] = e.Ctx.False()
		}
		return
	}

	// Static route candidates in deterministic priority order:
	// existing statics (config order) then potential adds (peer
	// order). The first valid static wins among statics.
	type staticCand struct {
		peer  string
		valid sat.Lit
	}
	var statics []staticCand
	for _, s := range r.StaticRoutes {
		if !s.Prefix.Covers(e.dst) {
			continue
		}
		if !e.topo.HasLink(r.Name, s.NextHop) {
			continue
		}
		var valid sat.Lit
		if !e.joint && e.coversOtherSubnet(s.Prefix) {
			// A covering static also steers other destinations: fixed
			// in split mode.
			valid = e.Ctx.True()
		} else {
			d := e.reg.get(
				fmt.Sprintf("rm_%s_Static_%s_%s", r.Name, s.Prefix, s.NextHop),
				DeltaRemove,
				fmt.Sprintf("%s/StaticRoute[%s]", r.Name, s.Prefix),
				Edit{Kind: RemoveStaticRoute, Router: r.Name, Prefix: s.Prefix, Peer: s.NextHop},
			)
			valid = d.Bool.Neg()
		}
		if s.NextHop == v.failed {
			valid = e.Ctx.False()
		}
		statics = append(statics, staticCand{peer: s.NextHop, valid: valid})
	}
	for _, peer := range e.topo.Neighbors(r.Name) {
		if e.hasStaticTo(r, peer) {
			continue
		}
		d := e.reg.get(
			fmt.Sprintf("add_%s_Static_%s_%s", r.Name, e.dst, peer),
			DeltaAdd,
			fmt.Sprintf("%s/StaticRoute[%s]", r.Name, e.dst),
			Edit{Kind: AddStaticRoute, Router: r.Name, Prefix: e.dst, Peer: peer},
		)
		valid := d.Bool
		if peer == v.failed {
			valid = e.Ctx.False()
		}
		statics = append(statics, staticCand{peer: peer, valid: valid})
	}

	// staticSel[i]: static i is valid and no earlier one is; prior
	// chains "an earlier static is valid".
	staticSel := make([]sat.Lit, len(statics))
	prior := e.Ctx.False()
	for i, sc := range statics {
		if i > 0 {
			prior = e.Ctx.Or(prior, statics[i-1].valid)
		}
		staticSel[i] = e.Ctx.And(sc.valid, prior.Neg())
	}

	// Protocol priority by AD: BGP (20) before OSPF (110). A process
	// wins when it is valid and no static and no earlier process is;
	// winner builds that literal on first use.
	type protoCand struct {
		key    string
		valid  sat.Lit
		winner sat.Lit
	}
	var protos []protoCand
	for _, proto := range config.Protocols {
		if p := r.Process(proto); p != nil {
			key := procLabel(r.Name, proto)
			protos = append(protos, protoCand{key: key, valid: v.bestValid[key]})
		}
	}
	anyStatic := sat.Lit(0)
	winner := func(j int) sat.Lit {
		if protos[j].winner == 0 {
			if anyStatic == 0 {
				anyStatic = e.Ctx.False()
				if n := len(statics); n > 0 {
					anyStatic = e.Ctx.Or(prior, statics[n-1].valid)
				}
			}
			earlier := make([]sat.Lit, j)
			for i := range earlier {
				earlier[i] = protos[i].valid
			}
			protos[j].winner = e.Ctx.And(protos[j].valid, anyStatic.Neg(), e.Ctx.Or(earlier...).Neg())
		}
		return protos[j].winner
	}

	// controlFwd per neighbor: statics win by AD, then the winning
	// process's selected peer.
	for _, peer := range e.topo.Neighbors(r.Name) {
		var fwd []sat.Lit
		for i, sc := range statics {
			if sc.peer == peer {
				fwd = append(fwd, staticSel[i])
			}
		}
		for j, pc := range protos {
			if sel, ok := v.selPeer[pc.key][peer]; ok {
				fwd = append(fwd, e.Ctx.And(winner(j), sel))
			}
		}
		v.controlFwd[r.Name+">"+peer] = e.Ctx.Or(fwd...)
	}
}

func (e *Encoder) hasStaticTo(r *config.Router, peer string) bool {
	for _, s := range r.StaticRoutes {
		if s.Prefix.Covers(e.dst) && s.NextHop == peer {
			return true
		}
	}
	return false
}
