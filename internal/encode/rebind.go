package encode

import (
	"context"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/sat"
	"github.com/aed-net/aed/internal/smt"
)

// This file implements the volatile layer of a live instance. The
// encoding produced by New + EncodePolicies is split in two:
//
//   - the stable base — topology, control-plane fixpoint, policies,
//     delta semantics — asserted permanently; and
//   - the volatile layer — each encoded route-filter rule's configured
//     action and local preference — asserted through retractable
//     assertions (smt.AssertRetractable).
//
// When the operator edits exactly those volatile attributes, Rebind
// retargets the live encoder at the new configuration by flipping the
// retractable bindings, and the next solve is an assumption-based
// re-solve on the same SAT solver: learned clauses, VSIDS activity and
// saved phases all survive. Any other difference (structural change)
// makes Rebind refuse, and the caller falls back to a full re-encode.

// ruleBinding is the volatile binding of one encoded route-filter rule.
type ruleBinding struct {
	// actV is a boolean standing for the rule's configured action
	// (true = permit); the chain encodes allow = actV XOR flip. It is
	// pinned by a pair of retractable unit assertions of which exactly
	// one is active, so flipping the configured action is one
	// Retract + one Reassert.
	actV     sat.Lit
	actTrue  smt.Handle
	actFalse smt.Handle
	permit   bool

	// inLPChain records that the rule was encoded in at least one
	// local-preference-aware chain. lpVar/lpD exist only when it was
	// additionally configured as permit there (deny rules get no lp
	// machinery); lpHandles memoizes one retractable anchor (anchorLP)
	// per configured value seen so far, with lpCur naming the active
	// one.
	inLPChain bool
	lpVar     *smt.IntVar
	lpD       *Delta
	lpCur     int
	lpHandles map[int]smt.Handle
}

// ruleKey names one route-filter rule: rule idx of the named filter on
// the named router.
type ruleKey struct {
	router, filter string
	idx            int
}

// bindRule returns (creating on first use) the volatile binding for
// rule idx of the named filter. The same physical rule may be encoded
// by several chain instances (in/out direction, with/without lp); they
// all share one binding, exactly as they share the rule's deltas.
func (e *Encoder) bindRule(router, filter string, idx int, rule *config.RouteRule) *ruleBinding {
	key := ruleKey{router, filter, idx}
	if b, ok := e.ruleBind[key]; ok {
		return b
	}
	actV := e.Ctx.BoolVar()
	b := &ruleBinding{
		actV:     actV,
		actTrue:  e.Ctx.AssertRetractable([]sat.Lit{actV}),
		actFalse: e.Ctx.AssertRetractable([]sat.Lit{actV.Neg()}),
		permit:   rule.Permit,
	}
	if rule.Permit {
		e.Ctx.Retract(b.actFalse)
	} else {
		e.Ctx.Retract(b.actTrue)
	}
	e.ruleBind[key] = b
	return b
}

// anchorLP asserts, retractably, that b's lp delta holds exactly when
// its local preference differs from the configured value lp: the two
// clauses of lpD ⇔ lpVar ≠ lp.
func (e *Encoder) anchorLP(b *ruleBinding, lp int) smt.Handle {
	d, eq := b.lpD.Bool, b.lpVar.EqConst(lp)
	return e.Ctx.AssertRetractable([]sat.Lit{d.Neg(), eq.Neg()}, []sat.Lit{d, eq})
}

// normLP maps a configured LocalPref to the encoding's convention
// (0 = unset = default preference 100).
func normLP(lp int) int {
	if lp == 0 {
		return 100
	}
	return lp
}

// ruleChange is one eligible volatile edit found by the diff.
type ruleChange struct {
	bind   *ruleBinding
	permit bool // new action
	lp     int  // new normalized local preference
}

// Rebind retargets the live encoding at newNet. It succeeds — returning
// the number of retractable bindings flipped — exactly when every
// difference between the encoder's network and newNet is a volatile
// attribute (action or local preference) of a route-filter rule that
// was encoded with a binding supporting the new value. Otherwise it
// returns ok=false and mutates nothing; the caller must re-encode.
//
// The diff deliberately covers at least everything the session cache's
// per-destination fingerprint reads (core/cache.go hashRouter and hashRouterDest): if any
// other part of a router differs — interfaces, processes, adjacencies,
// statics, packet filters, rule structure — the change may alter the
// base layer and Rebind refuses. Two documented approximations remain
// on the eligible path: a permit→deny flip keeps the rule's (now
// unreachable) lp machinery alive, and the EQUATE value companions
// stay anchored at the original configured rank — so callers gate
// rebinding on objective-free instances (core/session.go does).
func (e *Encoder) Rebind(newNet *config.Network) (swapped int, ok bool) {
	old := e.net
	names := old.RouterNames()
	newNames := newNet.RouterNames()
	if len(names) != len(newNames) {
		return 0, false
	}
	for i := range names {
		if names[i] != newNames[i] {
			return 0, false
		}
	}

	var changes []ruleChange
	for _, name := range names {
		cs, ok := e.diffRouter(old.Routers[name], newNet.Routers[name])
		if !ok {
			return 0, false
		}
		changes = append(changes, cs...)
	}

	// All changes vetted: apply. Each flip is Retract + Reassert pairs
	// on the live SMT context; no clause is deleted or re-encoded.
	for _, c := range changes {
		b := c.bind
		if c.permit != b.permit {
			if c.permit {
				e.Ctx.Retract(b.actFalse)
				e.Ctx.Reassert(b.actTrue)
			} else {
				e.Ctx.Retract(b.actTrue)
				e.Ctx.Reassert(b.actFalse)
			}
			b.permit = c.permit
			swapped++
		}
		if b.lpVar != nil && c.lp != b.lpCur {
			e.Ctx.Retract(b.lpHandles[b.lpCur])
			if h, seen := b.lpHandles[c.lp]; seen {
				e.Ctx.Reassert(h)
			} else {
				b.lpHandles[c.lp] = e.anchorLP(b, c.lp)
			}
			b.lpCur = c.lp
			swapped++
		}
	}
	e.net = newNet
	return swapped, true
}

// diffRouter compares one router's old and new configuration. It
// returns ok=false on any non-volatile difference, and otherwise the
// vetted volatile changes.
func (e *Encoder) diffRouter(old, nw *config.Router) ([]ruleChange, bool) {
	if !sameInterfaces(old.Interfaces, nw.Interfaces) ||
		!sameProcesses(old.Processes, nw.Processes) ||
		!sameStatics(old.StaticRoutes, nw.StaticRoutes) ||
		!samePacketFilters(old.PacketFilters, nw.PacketFilters) {
		return nil, false
	}
	if len(old.RouteFilters) != len(nw.RouteFilters) {
		return nil, false
	}
	var out []ruleChange
	for fi, of := range old.RouteFilters {
		nf := nw.RouteFilters[fi]
		if of.Name != nf.Name || len(of.Rules) != len(nf.Rules) {
			return nil, false
		}
		for ri, or := range of.Rules {
			nr := nf.Rules[ri]
			// Match range and metric are part of the stable base.
			if !or.Prefix.Equal(nr.Prefix) || or.Metric != nr.Metric {
				return nil, false
			}
			if or.Permit == nr.Permit && or.LocalPref == nr.LocalPref {
				continue
			}
			// A pruned rule (cannot affect this destination) is neither
			// encoded nor fingerprinted; its edits are invisible here.
			if !e.opts.NoPrune && !or.Matches(e.dst) {
				continue
			}
			b := e.ruleBind[ruleKey{old.Name, of.Name, ri}]
			if b == nil {
				// Encoded without a binding (baked const in split mode,
				// or part of an unencoded filter): structural.
				return nil, false
			}
			if or.Permit != nr.Permit && nr.Permit && b.inLPChain && b.lpVar == nil {
				// deny→permit in an lp-aware chain: the cold encoding
				// would grow lp machinery this instance lacks, so the
				// live sketch would under-approximate the repair space.
				return nil, false
			}
			newLP := normLP(nr.LocalPref)
			if or.LocalPref != nr.LocalPref {
				switch {
				case b.lpVar != nil:
					if !intIn(newLP, e.lpDomain) {
						return nil, false
					}
				case b.inLPChain:
					// Deny-rule preference is baked as a constant in the
					// lp-aware fold: structural.
					if normLP(or.LocalPref) != newLP {
						return nil, false
					}
				default:
					// The rule only appears in lp-blind chains; its
					// preference never reached the encoding.
				}
			}
			out = append(out, ruleChange{bind: b, permit: nr.Permit, lp: newLP})
		}
	}
	return out, true
}

func sameInterfaces(a, b []*config.Interface) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !a[i].Addr.Equal(b[i].Addr) ||
			a[i].FilterIn != b[i].FilterIn || a[i].FilterOut != b[i].FilterOut {
			return false
		}
	}
	return true
}

func sameProcesses(a, b []*config.Process) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		pa, pb := a[i], b[i]
		if pa.Protocol != pb.Protocol || pa.ID != pb.ID ||
			len(pa.Redistribute) != len(pb.Redistribute) ||
			len(pa.Adjacencies) != len(pb.Adjacencies) ||
			len(pa.Originations) != len(pb.Originations) {
			return false
		}
		for j := range pa.Redistribute {
			if pa.Redistribute[j] != pb.Redistribute[j] {
				return false
			}
		}
		for j := range pa.Adjacencies {
			aa, ab := pa.Adjacencies[j], pb.Adjacencies[j]
			if *aa != *ab {
				return false
			}
		}
		for j := range pa.Originations {
			if !pa.Originations[j].Prefix.Equal(pb.Originations[j].Prefix) {
				return false
			}
		}
	}
	return true
}

func sameStatics(a, b []*config.StaticRoute) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Prefix.Equal(b[i].Prefix) || a[i].NextHop != b[i].NextHop {
			return false
		}
	}
	return true
}

func samePacketFilters(a, b []*config.PacketFilter) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Rules) != len(b[i].Rules) {
			return false
		}
		for j := range a[i].Rules {
			ra, rb := a[i].Rules[j], b[i].Rules[j]
			if ra.Permit != rb.Permit || !ra.Src.Equal(rb.Src) || !ra.Dst.Equal(rb.Dst) {
				return false
			}
		}
	}
	return true
}

func intIn(v int, vs []int) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

// ReSolveContext re-runs the MaxSAT search on the live instance —
// typically right after a successful Rebind or Retarget — and reports
// the solver work of this call alone: the context's counters are
// cumulative over the instance's lifetime, so a snapshot taken before
// the search is subtracted out. NumDeltas counts the aux deltas Park
// dropped, as the encode-time result did.
func (e *Encoder) ReSolveContext(ctx context.Context, strategy smt.Strategy) *Result {
	before := e.Ctx.Stats()
	out := solveInstrumented(ctx, e.Ctx, e.span, e.reg.all(), strategy)
	out.Stats = out.Stats.Sub(before)
	out.NumDeltas = e.reg.count()
	return out
}
