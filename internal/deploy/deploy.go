// Package deploy plans the rollout of synthesized configuration
// updates. The paper defers safe deployment to future work (§11
// "Deploying updates: ... can lead to routing issues, like transient
// forwarding loops and black holes"); this package implements that
// extension: it orders per-device update batches so that, where
// possible, no intermediate network state violates a policy that both
// the initial and final configurations satisfy.
//
// The planner is greedy only: at each step it applies the remaining
// device batch that introduces the fewest transient violations (ties
// go to the alphabetically first router). It searches no other order,
// so a plan that is not Safe proves nothing: a transient-safe order
// may still exist.
package deploy

import (
	"fmt"
	"sort"
	"strings"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/encode"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/simulate"
	"github.com/aed-net/aed/internal/topology"
)

// Step is one deployment action: push all of one router's changes.
type Step struct {
	Router string
	Edits  []encode.Edit
	// Transient lists protected policies violated after this step
	// (and before subsequent steps) — ideally empty.
	Transient []simulate.Violation
}

// Plan is an ordered rollout.
type Plan struct {
	Steps []Step
	// Safe reports whether no step transiently violates a protected
	// policy.
	Safe bool
	// MaxTransient is the worst per-step count of transient
	// violations (0 when Safe).
	MaxTransient int
}

// String renders the plan for operators.
func (p *Plan) String() string {
	var b strings.Builder
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "step %d: update %s (%d edits)", i+1, s.Router, len(s.Edits))
		if len(s.Transient) > 0 {
			fmt.Fprintf(&b, " — %d transient violation(s)", len(s.Transient))
		}
		b.WriteString("\n")
	}
	if p.Safe {
		b.WriteString("rollout is transient-safe\n")
	} else {
		fmt.Fprintf(&b, "WARNING: the greedy order found no transient-safe rollout; worst step has %d violation(s)\n", p.MaxTransient)
	}
	return b.String()
}

// Build computes a rollout order for the edits on net. Protected
// policies are those of ps that hold in both the initial and the
// fully-updated network; transiently breaking a policy that is broken
// at one of the endpoints anyway is not charged to the plan.
func Build(net *config.Network, topo *topology.Topology, edits []encode.Edit, ps []policy.Policy) *Plan {
	byRouter := make(map[string][]encode.Edit)
	for _, e := range edits {
		byRouter[e.Router] = append(byRouter[e.Router], e)
	}
	routers := make([]string, 0, len(byRouter))
	for r := range byRouter {
		routers = append(routers, r)
	}
	sort.Strings(routers)

	final := encode.Apply(net, edits)
	protected := protectedPolicies(net, final, topo, ps)

	plan := &Plan{Safe: true}
	remaining := append([]string(nil), routers...)
	applied := make(map[string]bool)

	for len(remaining) > 0 {
		bestIdx := -1
		var bestViolations []simulate.Violation
		for i, r := range remaining {
			// Apply the batches of all already-applied routers plus r.
			trialEdits := collectEdits(byRouter, applied, r)
			trial := encode.Apply(net, trialEdits)
			vs := simulate.New(trial, topo).CheckAll(protected)
			if bestIdx == -1 || len(vs) < len(bestViolations) {
				bestIdx, bestViolations = i, vs
				if len(vs) == 0 {
					break
				}
			}
		}
		r := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		applied[r] = true
		step := Step{Router: r, Edits: byRouter[r], Transient: bestViolations}
		if len(bestViolations) > 0 {
			plan.Safe = false
			if len(bestViolations) > plan.MaxTransient {
				plan.MaxTransient = len(bestViolations)
			}
		}
		plan.Steps = append(plan.Steps, step)
	}
	return plan
}

// collectEdits gathers the batches of applied routers plus the
// candidate router, preserving the original edit slice order semantics
// (Apply stages internally, so concatenation order is immaterial).
func collectEdits(byRouter map[string][]encode.Edit, applied map[string]bool, extra string) []encode.Edit {
	var out []encode.Edit
	for r, es := range byRouter {
		if applied[r] || r == extra {
			out = append(out, es...)
		}
	}
	return out
}

// protectedPolicies returns the subset of ps holding in both
// endpoints' networks.
func protectedPolicies(before, after *config.Network, topo *topology.Topology, ps []policy.Policy) []policy.Policy {
	bs := simulate.New(before, topo)
	as := simulate.New(after, topo)
	var out []policy.Policy
	for _, p := range ps {
		if bs.Check(p) == nil && as.Check(p) == nil {
			out = append(out, p)
		}
	}
	return out
}
