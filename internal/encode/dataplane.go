package encode

import (
	"fmt"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/sat"
	"github.com/aed-net/aed/internal/smt"
)

// pfAllow encodes whether packets of the (src, dst) traffic class are
// allowed across the directed hop u→v: u's outbound filter on its
// eth-v interface and v's inbound filter on its eth-u interface both
// permit. Existing matching rules get removal and action-flip deltas;
// v's inbound side additionally gets a potential new (src,dst) rule —
// the construct AED uses to implement blocking policies (Fig. 7).
func (e *Encoder) pfAllow(src prefix.Prefix, u, v string) sat.Lit {
	key := hopKey{src.Canonical(), u, v}
	if f, ok := e.pfAllowCache[key]; ok {
		return f
	}
	ur := e.net.Routers[u]
	vr := e.net.Routers[v]
	out, in := e.Ctx.True(), e.Ctx.True()
	if ur != nil {
		if iface := ur.Interface("eth-" + v); iface != nil && iface.FilterOut != "" {
			out = e.packetFilterChain(ur, iface.FilterOut, src, "", false)
		}
	}
	if vr != nil {
		iface := vr.Interface("eth-" + u)
		filterName := ""
		ifaceName := "eth-" + u
		if iface != nil {
			filterName = iface.FilterIn
		}
		in = e.packetFilterChain(vr, filterName, src, ifaceName, true)
	}
	allow := e.Ctx.And(out, in)
	e.pfAllowCache[key] = allow
	return allow
}

// packetFilterChain encodes one packet filter's first-match outcome
// for the (src, e.dst) class. When inbound, a potential new
// class-specific rule (and, if needed, a new filter attachment) is
// modeled.
func (e *Encoder) packetFilterChain(r *config.Router, filterName string, src prefix.Prefix, ifaceName string, inbound bool) sat.Lit {
	// A named filter attached to several interfaces is one object: its
	// chain (including the potential added rule and that rule's action)
	// must be shared, or the model could behave differently per
	// interface while extraction emits a single physical rule.
	cacheKey := pfChainKey{router: r.Name, filter: filterName, src: src.Canonical(), inbound: inbound}
	if filterName == "" {
		cacheKey.iface = ifaceName
	}
	if cached, ok := e.pfChainCache[cacheKey]; ok {
		return cached
	}
	var f *config.PacketFilter
	name := filterName
	if filterName != "" {
		f = r.PacketFilter(filterName)
	} else {
		name = fmt.Sprintf("aed_pf_%s_%s", r.Name, ifaceName)
	}

	type link struct {
		matched sat.Lit
		allow   sat.Lit
	}
	var chain []link

	if inbound {
		addD := e.reg.get(
			fmt.Sprintf("add_%s_pFil_%s_%s_%s", r.Name, name, src, e.dst),
			DeltaAdd,
			fmt.Sprintf("%s/PacketFilter[%s]/Rule[new:%s>%s]", r.Name, name, src, e.dst),
			Edit{Kind: AddPacketRuleFront, Router: r.Name, Filter: name, Src: src, Prefix: e.dst},
		)
		allowD := e.Ctx.BoolVar()
		addD.ValueOf = func(m *smt.Model, ed *Edit) { ed.Permit = m.Bool(allowD) }
		e.reg.getAux(addD.Name+"_deny", DeltaAdd, addD.Path, "deny",
			addD.Bool, allowD.Neg())
		chain = append(chain, link{matched: addD.Bool, allow: allowD})
		if filterName == "" {
			// Attaching a brand-new filter to the interface. The
			// delta's path is the virtual filter itself so structural
			// objectives over (virtual) PacketFilter subtrees cover it.
			attach := e.reg.get(
				fmt.Sprintf("add_%s_pFilAttach_%s", r.Name, ifaceName),
				DeltaAdd,
				fmt.Sprintf("%s/PacketFilter[%s]", r.Name, name),
				Edit{Kind: AttachPacketFilter, Router: r.Name, Iface: ifaceName, Filter: name},
			)
			e.Ctx.Clause(addD.Bool.Neg(), attach.Bool)
		}
	}

	if f != nil {
		for i, rule := range f.Rules {
			matches := rule.Matches(src, e.dst)
			if !e.opts.NoPrune && !matches {
				continue
			}
			if !e.joint && e.coversOtherSubnet(rule.Dst) {
				// Broad rule (matches other destinations' traffic):
				// fixed in split mode; the prepended class-specific
				// rule can still override it.
				chain = append(chain, link{
					matched: e.boolLit(matches),
					allow:   e.boolLit(rule.Permit),
				})
				continue
			}
			rmD := e.reg.get(
				fmt.Sprintf("rm_%s_pFil_%s_%d", r.Name, f.Name, i),
				DeltaRemove,
				fmt.Sprintf("%s/PacketFilter[%s]/Rule[%d]", r.Name, f.Name, i),
				Edit{Kind: RemovePacketRule, Router: r.Name, Filter: f.Name, RuleIndex: i},
			)
			flipD := e.reg.get(
				fmt.Sprintf("mod_%s_pFil_%s_%d_allow", r.Name, f.Name, i),
				DeltaModify,
				fmt.Sprintf("%s/PacketFilter[%s]/Rule[%d]", r.Name, f.Name, i),
				Edit{Kind: FlipPacketRuleAction, Router: r.Name, Filter: f.Name, RuleIndex: i},
			)
			matched := e.Ctx.False()
			if matches {
				matched = rmD.Bool.Neg()
			}
			allow := flipD.Bool
			if rule.Permit {
				allow = allow.Neg()
			}
			chain = append(chain, link{matched: matched, allow: allow})
		}
	}

	// A rule decides when no earlier rule matched and it does (see
	// filterChain); no matching rule permits.
	cases := make([]sat.Lit, 0, len(chain))
	earlier := make([]sat.Lit, 0, len(chain)+1)
	for _, lnk := range chain {
		cases = append(cases, e.impliesLit(append(earlier, lnk.matched), lnk.allow))
		earlier = append(earlier, lnk.matched.Neg())
	}
	allow := e.Ctx.And(cases...)
	e.pfChainCache[cacheKey] = allow
	return allow
}

// reachable returns (building on first use) the literal "traffic of
// class (src, dst) injected at router start is delivered to the
// destination router" in environment v. Well-foundedness comes from
// controlFwd's acyclicity (cost equations exclude loops), so the
// mutually recursive reach definitions are consistent only for real
// forwarding paths.
func (e *Encoder) reachable(v *env, src prefix.Prefix, start string) sat.Lit {
	e.buildReach(v, src)
	return v.reach[src.String()+"|"+start]
}

// buildReach defines reach variables for every router for the class.
func (e *Encoder) buildReach(v *env, src prefix.Prefix) {
	tag := src.String()
	if _, ok := v.reach[tag+"|"+e.dstRouter]; ok {
		return
	}
	routers := e.net.RouterNames()
	vars := make(map[string]sat.Lit, len(routers))
	for _, name := range routers {
		vars[name] = e.Ctx.BoolVar()
		v.reach[tag+"|"+name] = vars[name]
	}
	for _, name := range routers {
		if name == e.dstRouter {
			// Delivered on arrival (the destination subnet hangs off
			// this router). A failed destination delivers nothing.
			if v.failed == name {
				e.Ctx.Clause(vars[name].Neg())
			} else {
				e.Ctx.Clause(vars[name])
			}
			continue
		}
		var hops []sat.Lit
		for _, peer := range e.topo.Neighbors(name) {
			fwd, ok := v.controlFwd[name+">"+peer]
			if !ok {
				continue
			}
			hops = append(hops, e.Ctx.And(fwd, e.pfAllow(src, name, peer), vars[peer]))
		}
		e.Ctx.DefineOr(vars[name], hops...)
	}
}

// hopBound returns the literal "the delivered path of class (src,dst)
// from router start uses at most k hops" in environment v, encoding
// exact per-router hop distances along the forwarding function (§6.2
// path-length constraints). The distance of the destination router is
// 0; every delivered router's distance is its next hop's plus one.
func (e *Encoder) hopBound(v *env, src prefix.Prefix, start string, k int) sat.Lit {
	e.buildReach(v, src)
	tag := src.String()
	routers := e.net.RouterNames()
	maxD := len(routers)
	dist := make(map[string]*smt.NatVar, len(routers))
	for _, name := range routers {
		dist[name] = e.Ctx.NatVarOf(maxD)
	}
	e.Ctx.Clause(dist[e.dstRouter].LeConst(0))
	for _, name := range routers {
		if name == e.dstRouter {
			continue
		}
		reachU := v.reach[tag+"|"+name]
		for _, peer := range e.topo.Neighbors(name) {
			fwd, ok := v.controlFwd[name+">"+peer]
			if !ok || fwd == e.Ctx.False() {
				continue
			}
			guard := []sat.Lit{reachU, fwd, e.pfAllow(src, name, peer), v.reach[tag+"|"+peer]}
			e.Ctx.AssertEqUnder(guard, dist[name], dist[peer], 1)
		}
	}
	return dist[start].LeConst(k)
}

// visits returns the literal "the forwarding path of class (src,dst)
// from router start traverses router via" in environment v.
func (e *Encoder) visits(v *env, src prefix.Prefix, start, via string) sat.Lit {
	tag := src.String() + "|" + start
	if _, ok := v.vis[tag+"|"+via]; !ok {
		e.buildVisits(v, src, start)
	}
	if l, ok := v.vis[tag+"|"+via]; ok {
		return l
	}
	return e.Ctx.False()
}

// buildVisits defines on-path variables rooted at start: vis[u] ⇔
// u == start ∨ ∃w: vis[w] ∧ dataFwd(w→u). The controlFwd graph is
// acyclic, so the fixpoint is unique.
func (e *Encoder) buildVisits(v *env, src prefix.Prefix, start string) {
	tag := src.String() + "|" + start
	routers := e.net.RouterNames()
	vars := make(map[string]sat.Lit, len(routers))
	for _, name := range routers {
		vars[name] = e.Ctx.BoolVar()
		v.vis[tag+"|"+name] = vars[name]
	}
	for _, name := range routers {
		if name == start {
			e.Ctx.Clause(vars[name])
			continue
		}
		var ins []sat.Lit
		for _, w := range e.topo.Neighbors(name) {
			fwd, ok := v.controlFwd[w+">"+name]
			if !ok {
				continue
			}
			// Traffic does not continue past the destination router.
			if w == e.dstRouter {
				continue
			}
			ins = append(ins, e.Ctx.And(vars[w], fwd, e.pfAllow(src, w, name)))
		}
		e.Ctx.DefineOr(vars[name], ins...)
	}
}
