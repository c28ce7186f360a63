package encode

import (
	"fmt"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/sat"
	"github.com/aed-net/aed/internal/smt"
)

// originationLit returns the literal "router r's process p originates
// a route covering the instance's destination" (paper Fig. 6): each
// existing matching origination survives unless removed, and the
// destination router may add a new origination for exactly dst.
func (e *Encoder) originationLit(r *config.Router, p *config.Process) sat.Lit {
	var out []sat.Lit
	for _, o := range p.Originations {
		if !o.Prefix.Covers(e.dst) {
			continue
		}
		if !e.opts.Joint && e.coversOtherSubnet(o.Prefix) {
			// Removing a covering aggregate would strand other
			// destinations; keep it fixed in split mode.
			out = append(out, e.Ctx.True())
			continue
		}
		d := e.reg.get(
			fmt.Sprintf("rm_%s_%s_Orig_%s", r.Name, p.Protocol, o.Prefix),
			DeltaRemove,
			fmt.Sprintf("%s/RoutingProcess[%s:%d]/Origination[%s]", r.Name, p.Protocol, p.ID, o.Prefix),
			Edit{Kind: RemoveOrigination, Router: r.Name, Proto: p.Protocol, Prefix: o.Prefix},
		)
		out = append(out, d.Bool.Neg())
	}
	// Potential origination of exactly dst, only at the router owning
	// the destination subnet (originating elsewhere would blackhole).
	if r.Name == e.dstRouter && !p.Originates(e.dst) {
		d := e.reg.get(
			fmt.Sprintf("add_%s_%s_Orig_%s", r.Name, p.Protocol, e.dst),
			DeltaAdd,
			fmt.Sprintf("%s/RoutingProcess[%s:%d]/Origination[%s]", r.Name, p.Protocol, p.ID, e.dst),
			Edit{Kind: AddOrigination, Router: r.Name, Proto: p.Protocol, Prefix: e.dst},
		)
		out = append(out, d.Bool)
	}
	return e.Ctx.Or(out...)
}

// adjacencySide encodes whether router r's process p has its side of
// the adjacency toward peer configured (paper §5.2 "Routing protocols
// and adjacencies"): existing ⇒ ¬rm delta; absent ⇒ add delta.
func (e *Encoder) adjacencySide(r *config.Router, p *config.Process, peer string) sat.Lit {
	cacheKey := adjKey{r.Name, p.Protocol, peer}
	if f, ok := e.adjSide[cacheKey]; ok {
		return f
	}
	path := fmt.Sprintf("%s/RoutingProcess[%s:%d]/Adjacency[%s]", r.Name, p.Protocol, p.ID, peer)
	var f sat.Lit
	if p.Adjacency(peer) != nil {
		if !e.opts.Joint {
			// Removing an adjacency affects every destination, so a
			// per-destination instance may not do it; denying the
			// destination's route with a filter achieves the same
			// effect prefix-specifically.
			f = e.Ctx.True()
			e.adjSide[cacheKey] = f
			return f
		}
		d := e.reg.get(
			fmt.Sprintf("rm_%s_%s_Adj_%s", r.Name, p.Protocol, peer),
			DeltaRemove, path,
			Edit{Kind: RemoveAdjacency, Router: r.Name, Proto: p.Protocol, Peer: peer},
		)
		f = d.Bool.Neg()
	} else {
		d := e.reg.get(
			fmt.Sprintf("add_%s_%s_Adj_%s", r.Name, p.Protocol, peer),
			DeltaAdd, path,
			Edit{Kind: AddAdjacency, Router: r.Name, Proto: p.Protocol, Peer: peer},
		)
		f = d.Bool
	}
	e.adjSide[cacheKey] = f
	return f
}

// routeFilterAllow encodes the allow/deny outcome of the route filter
// applied by router r on the adjacency (outbound direction when
// inbound=false). It covers rule removal and action-flip deltas plus a
// potential added dst-specific deny/permit rule (Fig. 5). Returns the
// symbolic allow literal.
func (e *Encoder) routeFilterAllow(r *config.Router, adj *config.Adjacency, self, other string, inbound bool) sat.Lit {
	var filterName string
	dir := "out"
	if adj != nil {
		if inbound {
			filterName = adj.InFilter
			dir = "in"
		} else {
			filterName = adj.OutFilter
		}
	}
	allow, _ := e.filterChain(r, filterName, self, other, dir, false)
	return allow
}

// routeFilterInbound encodes the inbound filter of r's process p for
// advertisements from peer, returning (allow, lp). The lp IntVar
// carries the symbolic local preference after the filter (default 100
// when no set action applies). Inbound filters support the full delta
// family: rule removal, action flips, lp re-ranking, new rule
// addition, and attaching a brand-new filter where none exists.
func (e *Encoder) routeFilterInbound(r *config.Router, p *config.Process, peer string) (sat.Lit, *smt.IntVar) {
	adj := p.Adjacency(peer)
	if adj == nil {
		// A potential new adjacency starts unfiltered: allow all,
		// default preference.
		allow, lp := e.filterChain(r, "", r.Name, peer, "newadj", true)
		return allow, lp
	}
	filterName := adj.InFilter
	newName := filterName
	if newName == "" {
		// Potential new filter attached to this adjacency.
		newName = fmt.Sprintf("aed_%s_from_%s", r.Name, peer)
	}
	allow, lp := e.filterChain(r, filterName, r.Name, peer, "in", true)

	// If there is no in-filter today, adding one requires both the
	// attach edit and the rule edit; the filterChain's add-rule delta
	// covers the rule. We gate the new-rule behaviour on the attach
	// delta when the filter did not exist.
	if filterName == "" && adj != nil {
		// The attach delta lives at the virtual filter's own path so
		// structural objectives over (virtual) RouteFilter subtrees
		// govern it.
		attach := e.reg.get(
			fmt.Sprintf("add_%s_%s_InFilter_%s", r.Name, p.Protocol, peer),
			DeltaAdd,
			fmt.Sprintf("%s/RouteFilter[%s]", r.Name, newName),
			Edit{Kind: AttachInFilter, Router: r.Name, Proto: p.Protocol, Peer: peer, Filter: newName},
		)
		// The chain's add-rule delta for the virtual filter must imply
		// the attach (rule without filter is meaningless).
		addRule := e.reg.byName[e.addRuleName(r.Name, newName)]
		if addRule != nil {
			e.Ctx.Clause(addRule.Bool.Neg(), attach.Bool)
		}
	}
	return allow, lp
}

func (e *Encoder) addRuleName(router, filter string) string {
	return fmt.Sprintf("add_%s_rFil_%s_new_%s", router, filter, e.dst)
}

// filterChain encodes a route filter's first-match evaluation for the
// instance destination. When withLP is true it returns an IntVar for
// the resulting local preference; otherwise lp is nil.
//
// Chain order (Fig. 5): the potential new dst-specific rule first,
// then existing rules in order (each skippable via its rm delta, its
// action flippable via an allow delta, its lp re-rankable), then the
// default (permit, lp 100).
func (e *Encoder) filterChain(r *config.Router, filterName, self, other, dir string, withLP bool) (sat.Lit, *smt.IntVar) {
	// One symbolic object per logical filter: a named filter applied on
	// several adjacencies shares its rule deltas AND its symbolic rule
	// contents, or the model could assign it contradictory behaviours
	// per adjacency.
	cacheKey := rfChainKey{router: r.Name, filter: filterName, dir: dir, withLP: withLP}
	if filterName == "" {
		cacheKey.peer = other
	}
	if c, ok := e.rfChainCache[cacheKey]; ok {
		return c.allow, c.lp
	}
	var f *config.RouteFilter
	name := filterName
	if filterName != "" {
		f = r.RouteFilter(filterName)
	} else {
		name = fmt.Sprintf("aed_%s_from_%s", self, other)
	}

	type link struct {
		matched sat.Lit // this rule applies (given no earlier rule did)
		allow   sat.Lit
		lp      *smt.IntVar // nil = keep default
		lpConst int         // used when lp == nil and lpConst != 0
	}
	var chain []link

	// Potential new rule, specific to dst. Only for inbound chains
	// (outbound deny rules are expressible too, so allow both; the
	// tag includes direction to keep variables distinct).
	if dir == "in" {
		addD := e.reg.get(
			e.addRuleName(r.Name, name),
			DeltaAdd,
			fmt.Sprintf("%s/RouteFilter[%s]/Rule[new:%s]", r.Name, name, e.dst),
			Edit{Kind: AddRouteRuleFront, Router: r.Name, Filter: name, Prefix: e.dst},
		)
		allowD := e.Ctx.BoolVar()
		var lpVar *smt.IntVar
		if withLP {
			lpVar = e.Ctx.IntVarOf(e.lpDomain)
		}
		// Extraction: the added rule's action and lp come from the model.
		addD.ValueOf = func(m *smt.Model, ed *Edit) {
			ed.Permit = m.Bool(allowD)
			if lpVar != nil {
				if lp := m.Int(lpVar); lp != 100 && ed.Permit {
					ed.LocalPref = lp
				}
			}
		}
		// Value-choice companions so EQUATE matches rule content, not
		// just rule presence. Gated on the add so they are false (and
		// free) when no rule is added.
		e.reg.getAux(addD.Name+"_deny", DeltaAdd, addD.Path, "deny",
			addD.Bool, allowD.Neg())
		if lpVar != nil {
			for _, lp := range e.lpDomain {
				if lp == 100 {
					continue
				}
				e.reg.getAux(fmt.Sprintf("%s_lp%d", addD.Name, lp), DeltaAdd,
					addD.Path, fmt.Sprintf("lp=%d", lp),
					addD.Bool, allowD, lpVar.EqConst(lp))
			}
		}
		chain = append(chain, link{matched: addD.Bool, allow: allowD, lp: lpVar})
	}

	if f != nil {
		for i, rule := range f.Rules {
			matches := rule.Matches(e.dst)
			if !e.opts.NoPrune && !matches {
				// Pruned: this conditional cannot affect dst.
				continue
			}
			if !e.opts.Joint && e.coversOtherSubnet(rule.Prefix) {
				// The rule also filters other destinations' routes, so
				// a per-destination instance must treat it as fixed;
				// the prepended dst-specific rule can still override.
				lnk := link{
					matched: e.boolLit(matches),
					allow:   e.boolLit(rule.Permit),
					lpConst: rule.LocalPref,
				}
				chain = append(chain, lnk)
				continue
			}
			rmD := e.reg.get(
				fmt.Sprintf("rm_%s_rFil_%s_%d", r.Name, f.Name, i),
				DeltaRemove,
				fmt.Sprintf("%s/RouteFilter[%s]/Rule[%d]", r.Name, f.Name, i),
				Edit{Kind: RemoveRouteRule, Router: r.Name, Filter: f.Name, RuleIndex: i},
			)
			flipD := e.reg.get(
				fmt.Sprintf("mod_%s_rFil_%s_%d_allow", r.Name, f.Name, i),
				DeltaModify,
				fmt.Sprintf("%s/RouteFilter[%s]/Rule[%d]", r.Name, f.Name, i),
				Edit{Kind: FlipRouteRuleAction, Router: r.Name, Filter: f.Name, RuleIndex: i},
			)
			matched := e.Ctx.False()
			if matches {
				matched = rmD.Bool.Neg()
			}
			// The rule's configured action lives in a retractable
			// binding (rebind.go) so an external edit of the action is
			// an assumption flip, not a re-encode:
			// allow = bound action XOR flip.
			bind := e.bindRule(r.Name, f.Name, i, rule)
			allowF := e.Ctx.And(
				e.Ctx.Or(bind.actV.Neg(), flipD.Bool),
				e.Ctx.Or(bind.actV, flipD.Bool.Neg())).Neg()
			lnk := link{matched: matched, allow: allowF}
			if withLP {
				bind.inLPChain = true
			}
			if withLP && rule.Permit {
				cur := rule.LocalPref
				if cur == 0 {
					cur = 100
				}
				if bind.lpVar == nil {
					lpVar := e.Ctx.IntVarOf(e.lpDomain)
					// lp change is itself a (modify) delta with a derived
					// change indicator. The indicator's anchor to the
					// configured value is retractable so a config-side
					// re-rank re-anchors it without re-encoding.
					lpD := e.reg.get(
						fmt.Sprintf("mod_%s_rFil_%s_%d_lp", r.Name, f.Name, i),
						DeltaModify,
						fmt.Sprintf("%s/RouteFilter[%s]/Rule[%d]", r.Name, f.Name, i),
						Edit{Kind: SetRouteRuleLP, Router: r.Name, Filter: f.Name, RuleIndex: i},
					)
					lpD.ValueOf = func(m *smt.Model, ed *Edit) { ed.LocalPref = m.Int(lpVar) }
					// Value companions: EQUATE must match the chosen rank,
					// not just the fact of a change.
					for _, lp := range e.lpDomain {
						if lp == cur {
							continue
						}
						e.reg.getAux(fmt.Sprintf("%s_is%d", lpD.Name, lp), DeltaModify,
							lpD.Path, fmt.Sprintf("lp=%d", lp), lpVar.EqConst(lp))
					}
					bind.lpVar = lpVar
					bind.lpD = lpD
					bind.lpCur = cur
					bind.lpHandles = map[int]smt.Handle{cur: e.anchorLP(bind, cur)}
				}
				lnk.lp = bind.lpVar
			} else if rule.LocalPref != 0 {
				lnk.lpConst = rule.LocalPref
			}
			chain = append(chain, lnk)
		}
	}

	// Fold the chain into (allow, lp). A rule decides when no earlier
	// rule matched and it does; earlier holds ¬matched of the rules so
	// far, and fires that guard for the current rule.
	var lpOut *smt.IntVar
	if withLP {
		lpOut = e.Ctx.IntVarOf(e.lpDomain)
	}
	cases := make([]sat.Lit, 0, len(chain))
	earlier := make([]sat.Lit, 0, len(chain)+1)
	for _, lnk := range chain {
		fires := append(earlier, lnk.matched)
		cases = append(cases, e.impliesLit(fires, lnk.allow))
		if withLP {
			switch {
			case lnk.lp != nil:
				e.Ctx.AssertIntEqUnder(fires, lpOut, lnk.lp)
			case lnk.lpConst != 0:
				e.Ctx.ClauseUnder(fires, lpOut.EqConst(lnk.lpConst))
			default:
				e.Ctx.ClauseUnder(fires, lpOut.EqConst(100))
			}
		}
		earlier = append(earlier, lnk.matched.Neg())
	}
	if withLP {
		// No rule matched: the default preference.
		e.Ctx.ClauseUnder(earlier, lpOut.EqConst(100))
	}
	allow := e.Ctx.And(cases...) // default: no matching rule permits
	e.rfChainCache[cacheKey] = rfChain{allow: allow, lp: lpOut}
	return allow, lpOut
}

// impliesLit returns the literal g₁ ∧ … ∧ gₙ → l, an Or gate over
// ¬g₁ … ¬gₙ and l.
func (e *Encoder) impliesLit(g []sat.Lit, l sat.Lit) sat.Lit {
	or := make([]sat.Lit, 0, len(g)+1)
	for _, x := range g {
		or = append(or, x.Neg())
	}
	return e.Ctx.Or(append(or, l)...)
}

// boolLit returns the context's constant literal for b.
func (e *Encoder) boolLit(b bool) sat.Lit {
	if b {
		return e.Ctx.True()
	}
	return e.Ctx.False()
}
