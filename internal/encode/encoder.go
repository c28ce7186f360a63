package encode

import (
	"fmt"
	"sort"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
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
	// MaxCost bounds the cost domain; 0 derives it from the topology.
	MaxCost int
	// Joint marks a monolithic encoding that shares delta variables
	// across all destination copies (the Fig. 14 baseline); NewJoint
	// sets it. The default (false) is a per-destination split instance
	// (§8 "Grouping policies based on a destination address"): deltas
	// that would affect traffic of other destinations — adjacency
	// removals, removals/flips of filter rules whose match range
	// covers other subnets — are suppressed, so independently solved
	// instances cannot conflict: every remaining update mechanism is
	// specific to this instance's prefix.
	Joint bool
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

	// envs holds one control-plane copy per environment. envs[0] is
	// the normal network; additional environments model single-router
	// failures for path-preference policies.
	envs map[string]*env

	// adjacency caches per (router,proto,peer) the formula "this
	// directed adjacency side is configured", shared across envs.
	adjSide map[adjKey]*smt.Formula

	// pfAllowCache caches packet filter hop formulas per (src, u, v).
	pfAllowCache map[hopKey]*smt.Formula
	// pfChainCache caches packet-filter chain outcomes per
	// (router, filter, src): a named filter attached to several
	// interfaces must be one consistent symbolic object — its added
	// rule and action apply everywhere the filter does.
	pfChainCache map[pfChainKey]*smt.Formula
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
	allow *smt.Formula
	lp    *smt.IntVar
}

// env is one copy of the symbolic control plane: all routers up except
// the named failed router.
type env struct {
	failed string
	// per (router|proto): best-route record.
	bestValid map[string]*smt.Formula
	bestCost  map[string]*smt.NatVar
	bestLP    map[string]*smt.IntVar
	// controlFwd per directed link "u>v".
	controlFwd map[string]*smt.Formula
	// selPeer / selLocal record, per process key, the formulas "this
	// process's best route points at peer" / "...is a local
	// origination (directly or through redistribution)".
	selPeer  map[string]map[string]*smt.Formula
	selLocal map[string]*smt.Formula
	// localDeliver per router: the router's best route is its own
	// origination (traffic terminates here from the control plane's
	// point of view).
	localDeliver map[string]*smt.Formula
	// reach/vis per (src traffic class|router), built lazily.
	reach map[string]*smt.Formula
	vis   map[string]*smt.Formula
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
		adjSide:      make(map[adjKey]*smt.Formula),
		pfAllowCache: make(map[hopKey]*smt.Formula),
		pfChainCache: make(map[pfChainKey]*smt.Formula),
		rfChainCache: make(map[rfChainKey]rfChain),
		ruleBind:     make(map[ruleKey]*ruleBinding),
	}
	e.lpDomain = e.buildLPDomain()
	e.maxCost = opts.MaxCost
	if e.maxCost == 0 {
		// Hop-count bound: the longest useful path visits each router
		// at most once; cap to keep order encodings small.
		e.maxCost = len(net.Routers) + 2
		if e.maxCost > 40 {
			e.maxCost = 40
		}
	}
	return e
}

// Park readies a solved instance for its life as a live instance
// (kept between solves for tier-2 re-solves, see rebind.go and
// retarget.go). It releases what only encoding reads — the environment
// copies, the adjacency and filter-chain caches, the pending
// redistribution links and the delta registry's name index — which
// between them reach the whole formula DAG, then parks the SMT context
// (smt.Context.Park), which drops its foreign-node memo and compacts the
// solver. It also drops the aux deltas (Delta.Aux) from the delta list:
// only objectives read them, and a live instance has none (see
// core's keepsLive), so Deltas returns the structural deltas alone after
// Park, while a re-solve's Result.NumDeltas still reports the count at
// encode time. What Rebind, Retarget and ReSolveContext read stays: the
// context, the network, the options, the destination, the
// local-preference domain, the rule bindings, the policy guards and the
// structural deltas with their ValueOf closures. The soft constraints
// the context keeps are negated delta variables, which pin no DAG.
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
	e.pendingRedist = nil
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
		if err := e.encodeGuarded(p, smt.TrueF); err != nil {
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
		failed:       failed,
		bestValid:    make(map[string]*smt.Formula),
		bestCost:     make(map[string]*smt.NatVar),
		bestLP:       make(map[string]*smt.IntVar),
		controlFwd:   make(map[string]*smt.Formula),
		localDeliver: make(map[string]*smt.Formula),
		selPeer:      make(map[string]map[string]*smt.Formula),
		selLocal:     make(map[string]*smt.Formula),
		reach:        make(map[string]*smt.Formula),
		vis:          make(map[string]*smt.Formula),
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
	valid *smt.Formula
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
			fwd := v.controlFwd[name+">"+peer]
			if fwd == nil || fwd == smt.FalseF {
				continue
			}
			e.Ctx.AssertLeUnder(fwd, rank[peer], 1, rank[name], 0)
		}
	}
}

// encodeProcess constrains one process's best record to be the most
// preferred valid candidate (origination, redistribution, or a
// neighbor advertisement passed by the filters).
func (e *Encoder) encodeProcess(v *env, r *config.Router, p *config.Process) {
	key := procLabel(r.Name, p.Protocol)
	failed := r.Name == v.failed

	var cands []candidate

	// Origination: valid iff some origination covering dst survives
	// (¬rm), or the potential dst-origination is added.
	orig := e.originationFormula(r, p)
	cands = append(cands, candidate{
		name: "", valid: orig, constNat: 0, constLP: 100,
	})

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

	// A failed router has no valid routes at all.
	if failed {
		e.Ctx.Assert(smt.Not(v.bestValid[key]))
		v.selPeer[key] = map[string]*smt.Formula{}
		v.selLocal[key] = smt.FalseF
		return
	}

	valid := make([]*smt.Formula, len(cands))
	for i, c := range cands {
		valid[i] = c.valid
	}
	e.Ctx.Assert(smt.Iff(v.bestValid[key], smt.Or(valid...)))

	// Selection: sel_i ⇒ candidate valid and best fields equal its
	// fields; the preference below then makes the best record the most
	// preferred valid candidate. notSel[i] is ¬sel_i, built once: every
	// binding below is an implication from sel_i, written as a clause
	// over it.
	sels := make([]*smt.Formula, len(cands))
	notSel := make([]*smt.Formula, len(cands))
	for i := range cands {
		sels[i] = e.Ctx.BoolVar()
		notSel[i] = smt.Not(sels[i])
	}
	// Exactly one selected when valid; none otherwise.
	e.Ctx.Assert(smt.Iff(v.bestValid[key], smt.Or(sels...)))
	for i := range cands {
		for j := i + 1; j < len(cands); j++ {
			e.Ctx.Assert(smt.Or(notSel[i], notSel[j]))
		}
	}
	var lp *lpComparer // nil outside BGP
	if p.Protocol == config.BGP {
		lp = &lpComparer{best: v.bestLP[key], memo: map[lpKey]*smt.Formula{}}
	}
	peerSel := make(map[string]*smt.Formula)
	local := smt.FalseF
	for i, c := range cands {
		e.Ctx.Assert(smt.Or(notSel[i], c.valid))
		// Bind best fields.
		if c.nat == nil {
			e.Ctx.Assert(smt.Or(notSel[i], v.bestCost[key].EqConstNat(c.constNat)))
		} else {
			e.Ctx.AssertEqUnder(sels[i], v.bestCost[key], c.nat, c.natOff)
		}
		if lp != nil {
			e.Ctx.Assert(smt.Or(notSel[i], lp.cmp(c, lpEq)))
		}
		switch {
		case c.peer != "":
			peerSel[c.peer] = smt.Or(peerSel[c.peer], sels[i])
		case c.name == "":
			// Origination candidate.
			local = smt.Or(local, sels[i])
		default:
			// Redistribution: forward/deliver through the source
			// process's own selection (resolved in a second pass by
			// resolveRedistribution, since the source process may not
			// be encoded yet).
			e.pendingRedist = append(e.pendingRedist, redistLink{
				env: v, key: key, sel: sels[i],
				srcKey: procLabel(r.Name, redistProtoOf(c.name)),
			})
		}
	}
	e.assertPreference(cands, sels, v.bestCost[key], lp)
	v.selPeer[key] = peerSel
	v.selLocal[key] = local
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
// to its candidate's fields, and a valid candidate makes exactly one
// selected, so two constraints per candidate o, stated against the best
// record, have the same models:
//
//   - valid_o → the best record is no worse than o;
//   - valid_o ∧ ¬(a candidate up to o in name order is selected) → the
//     best record is strictly better than o.
//
// "A candidate up to o is selected" is the first candidate's selector,
// then a variable per candidate defined as o's selector or the previous
// one's, so the preference costs O(k) constraints.
func (e *Encoder) assertPreference(cands []candidate, sels []*smt.Formula, best *smt.NatVar, lp *lpComparer) {
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return cands[order[x]].name < cands[order[y]].name })
	var upTo *smt.Formula
	for n, i := range order {
		o := cands[i]
		// For BGP, "higher local preference, or equal and no costlier"
		// is lp(best) >= lp(o), and the cost comparison unless
		// lp(best) > lp(o); the strict preference differs in the cost
		// comparison only.
		costGuard := o.valid
		if lp != nil {
			e.Ctx.Assert(smt.Implies(o.valid, lp.cmp(o, lpGe)))
			costGuard = smt.And(o.valid, smt.Not(lp.cmp(o, lpGt)))
		}
		e.assertCostLe(costGuard, best, 0, o)
		if n == len(order)-1 {
			break // no candidate comes after the last
		}
		if upTo == nil {
			upTo = sels[i]
		} else {
			s := e.Ctx.BoolVar()
			e.Ctx.Assert(smt.Iff(s, smt.Or(sels[i], upTo)))
			upTo = s
		}
		e.assertCostLe(smt.And(costGuard, smt.Not(upTo)), best, 1, o)
	}
}

// assertCostLe asserts g → best + d <= the cost of candidate o.
func (e *Encoder) assertCostLe(g *smt.Formula, best *smt.NatVar, d int, o candidate) {
	if o.nat == nil {
		e.Ctx.Assert(smt.Implies(g, best.LeConst(o.constNat-d)))
		return
	}
	e.Ctx.AssertLeUnder(g, best, d, o.nat, o.natOff)
}

// redistLink defers wiring a redistribution candidate's forwarding
// behaviour until all processes of the router are encoded.
type redistLink struct {
	env    *env
	key    string
	srcKey string
	sel    *smt.Formula
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
// selPeer/selLocal: selecting a redistributed route forwards wherever
// the source process's best points (or delivers locally).
func (e *Encoder) resolveRedistribution() {
	for _, rl := range e.pendingRedist {
		src := rl.env.selPeer[rl.srcKey]
		dst := rl.env.selPeer[rl.key]
		for peer, f := range src {
			dst[peer] = smt.Or(dst[peer], smt.And(rl.sel, f))
		}
		rl.env.selLocal[rl.key] = smt.Or(rl.env.selLocal[rl.key],
			smt.And(rl.sel, rl.env.selLocal[rl.srcKey]))
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
		peerValid = smt.FalseF
	}

	// Filters: the peer's out-filter toward us, then our in-filter.
	outAllow := e.routeFilterAllow(peerR, peerProc.Adjacency(r.Name), peer, r.Name, false)
	inAllow, lpVar := e.routeFilterInbound(r, p, peer)

	valid := smt.And(side, backSide, peerValid, outAllow, inAllow)

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
	lpEq lpRel = iota // equal
	lpGe              // at least
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
// IntVars' shared threshold nodes.
type lpComparer struct {
	best *smt.IntVar
	memo map[lpKey]*smt.Formula
}

// cmp returns lp(best) rel lp(o) over the one-hot local preferences.
func (l *lpComparer) cmp(o candidate, rel lpRel) *smt.Formula {
	if o.lp == nil {
		switch c := o.lpConst(); rel {
		case lpEq:
			return l.best.EqConst(c)
		case lpGe:
			return l.best.GeConst(c)
		default:
			return l.best.GtConst(c)
		}
	}
	k := lpKey{o.lp, rel}
	if f, ok := l.memo[k]; ok {
		return f
	}
	var f *smt.Formula
	switch rel {
	case lpEq:
		f = smt.IntEq(l.best, o.lp, 0, 0)
	case lpGe:
		f = smt.IntGe(l.best, o.lp, 0, 0)
	default:
		f = smt.IntGt(l.best, o.lp, 0, 0)
	}
	l.memo[k] = f
	return f
}

// encodeRouterSelection builds bestOverall and controlFwd for one
// router: the process (or static route) with the lowest administrative
// distance wins (statics 1, BGP 20, OSPF 110 — constants in our
// dialect, so the cross-protocol choice is a fixed priority chain).
func (e *Encoder) encodeRouterSelection(v *env, r *config.Router) {
	if r.Name == v.failed {
		for _, peer := range e.topo.Neighbors(r.Name) {
			v.controlFwd[r.Name+">"+peer] = smt.FalseF
		}
		v.localDeliver[r.Name] = smt.FalseF
		return
	}

	// Static route candidates in deterministic priority order:
	// existing statics (config order) then potential adds (peer
	// order). The first valid static wins among statics.
	type staticCand struct {
		peer  string
		valid *smt.Formula
	}
	var statics []staticCand
	for _, s := range r.StaticRoutes {
		if !s.Prefix.Covers(e.dst) {
			continue
		}
		if !e.topo.HasLink(r.Name, s.NextHop) {
			continue
		}
		var valid *smt.Formula
		if !e.opts.Joint && e.coversOtherSubnet(s.Prefix) {
			// A covering static also steers other destinations: fixed
			// in split mode.
			valid = smt.TrueF
		} else {
			d := e.reg.get(
				fmt.Sprintf("rm_%s_Static_%s_%s", r.Name, s.Prefix, s.NextHop),
				DeltaRemove,
				fmt.Sprintf("%s/StaticRoute[%s]", r.Name, s.Prefix),
				Edit{Kind: RemoveStaticRoute, Router: r.Name, Prefix: s.Prefix, Peer: s.NextHop},
			)
			valid = smt.Not(d.Bool)
		}
		if s.NextHop == v.failed {
			valid = smt.FalseF
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
			valid = smt.FalseF
		}
		statics = append(statics, staticCand{peer: peer, valid: valid})
	}

	anyStatic := smt.FalseF
	staticSel := make([]*smt.Formula, len(statics))
	prior := smt.FalseF
	for i, sc := range statics {
		staticSel[i] = smt.And(sc.valid, smt.Not(prior))
		prior = smt.Or(prior, sc.valid)
		anyStatic = smt.Or(anyStatic, sc.valid)
	}

	// Protocol priority by AD: BGP (20) before OSPF (110).
	type protoCand struct {
		proto config.Proto
		valid *smt.Formula
	}
	var protos []protoCand
	for _, proto := range config.Protocols {
		if p := r.Process(proto); p != nil {
			protos = append(protos, protoCand{proto, v.bestValid[procLabel(r.Name, proto)]})
		}
	}

	// localDeliver: the winning process selected an origination
	// (directly or via redistribution) and no static overrides.
	local := smt.FalseF
	prevProtoValid := smt.FalseF
	for _, pc := range protos {
		key := procLabel(r.Name, pc.proto)
		isWinner := smt.And(pc.valid, smt.Not(anyStatic), smt.Not(prevProtoValid))
		local = smt.Or(local, smt.And(isWinner, v.selLocal[key]))
		prevProtoValid = smt.Or(prevProtoValid, pc.valid)
	}
	v.localDeliver[r.Name] = local

	// controlFwd per neighbor: statics win by AD, then the winning
	// process's selected peer.
	for _, peer := range e.topo.Neighbors(r.Name) {
		fwd := smt.FalseF
		for i, sc := range statics {
			if sc.peer == peer {
				fwd = smt.Or(fwd, staticSel[i])
			}
		}
		prevValid := smt.FalseF
		for _, pc := range protos {
			key := procLabel(r.Name, pc.proto)
			if sel, ok := v.selPeer[key][peer]; ok && sel != nil {
				winner := smt.And(pc.valid, smt.Not(anyStatic), smt.Not(prevValid))
				fwd = smt.Or(fwd, smt.And(winner, sel))
			}
			prevValid = smt.Or(prevValid, pc.valid)
		}
		v.controlFwd[r.Name+">"+peer] = fwd
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
