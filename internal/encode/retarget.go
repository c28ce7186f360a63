package encode

import (
	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/sat"
	"github.com/aed-net/aed/internal/smt"
)

// This file lets a live instance follow a policy edit. An instance
// encoded by EncodeRetractable asserts each policy of its group behind
// its own guard variable, pinned true by a retractable assertion. A
// policy edit that only switches encoded policies off and on then
// changes the live instance in place: a removed policy is retracted
// and a policy encoded before is reasserted. The next solve is a warm
// re-solve on the same SAT solver, as after a Rebind. A policy the
// instance has never encoded is not added here: the caller re-encodes,
// and the new instance's guards are exactly its policy group, so a
// live instance never holds more policies than its last encoding did.

// policyGuard is one encoded policy's retractable guard.
type policyGuard struct {
	h  smt.Handle
	on bool
}

// policyKey canonicalizes p's prefixes, so one policy has one guard
// however its prefixes were written.
func policyKey(p policy.Policy) policy.Policy {
	p.Src, p.Dst = p.Src.Canonical(), p.Dst.Canonical()
	return p
}

// EncodeRetractable is EncodePolicies for an instance that will be kept
// live: each policy's constraints hold only while its guard does, and
// the guard is a retractable assertion, so Retarget can later switch
// policies off and on without re-encoding. The optimum is the same as
// EncodePolicies'; the CNF differs by one guard literal per policy.
func (e *Encoder) EncodeRetractable(ps []policy.Policy) error {
	e.guards = make(map[policy.Policy]*policyGuard, len(ps))
	for _, p := range ps {
		k := policyKey(p)
		if _, ok := e.guards[k]; ok {
			continue
		}
		g := e.Ctx.BoolVar()
		if err := e.encodeGuarded(p, []sat.Lit{g}); err != nil {
			return err
		}
		e.guards[k] = &policyGuard{h: e.Ctx.AssertRetractable([]sat.Lit{g}), on: true}
	}
	return nil
}

// Retargeting is what one Retarget changed: the route-filter bindings
// its Rebind flipped, and the policies it switched on (reasserted) and
// off (retracted).
type Retargeting struct {
	Swapped, Added, Retracted int
}

// Retarget moves the live instance to the network net and the policy
// group ps. It vets the policy edit first, then rebinds the network
// (Rebind), then retracts the policies that left the group and
// reasserts the ones that came back. When either step is not possible
// here — ps holds a policy the instance has not encoded, or the
// configuration delta is not rebindable — it returns ok=false and
// mutates nothing, and the caller must re-encode. The instance must
// have been encoded by EncodeRetractable.
func (e *Encoder) Retarget(net *config.Network, ps []policy.Policy) (r Retargeting, ok bool) {
	if e.guards == nil {
		return r, false
	}
	want := make(map[policy.Policy]bool, len(ps))
	var on []*policyGuard
	for _, p := range ps {
		k := policyKey(p)
		if want[k] {
			continue
		}
		want[k] = true
		g, seen := e.guards[k]
		if !seen {
			return r, false
		}
		if !g.on {
			on = append(on, g)
		}
	}
	if r.Swapped, ok = e.Rebind(net); !ok {
		return r, false
	}
	for k, g := range e.guards {
		if g.on && !want[k] {
			e.Ctx.Retract(g.h)
			g.on = false
			r.Retracted++
		}
	}
	for _, g := range on {
		e.Ctx.Reassert(g.h)
		g.on = true
	}
	r.Added = len(on)
	return r, true
}
