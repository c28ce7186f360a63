package bench

import (
	"context"
	"slices"
	"testing"

	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/simulate"
)

// TestZooAddPoliciesOnSession runs the paper's Zoo protocol (§9.1,
// Fig. 12: synthesize for 8 policies, then add 8 more) on a session:
// prime it with the base policies, solve base + new, then withdraw the
// new policies and add them back. A destination of the base policies
// whose group grew is re-encoded on the add, since its live instance
// has not encoded the new policies, and is served by that instance
// (Retargeted) on the withdrawal and the re-add; one whose group did
// not change stays cached throughout. Every step's verdict, total cost
// and simulator check must agree with a cold sequential synthesis of
// the same inputs.
func TestZooAddPoliciesOnSession(t *testing.T) {
	w := ZooWorkload(30, 8, 8, 1)
	opts := core.Options{MinimizeLines: true}
	cold := opts
	cold.Sequential = true
	ctx := context.Background()
	eng := core.NewEngine(w.Net, w.Topo, opts)
	if res, err := eng.Solve(ctx, w.Base); err != nil || res.Unsat() != nil {
		t.Fatalf("priming solve: err=%v unsat=%v", err, res.Unsat())
	}

	all := append(slices.Clone(w.Base), w.New...)
	before := policy.GroupByDestination(w.Base)
	after := policy.GroupByDestination(all)
	grown := 0
	for d, old := range before {
		if len(old) != len(after[d]) {
			grown++
		}
	}
	if grown == 0 {
		t.Fatal("no destination of the base policies gained a policy: the workload tests nothing")
	}

	for _, step := range []struct {
		name string
		ps   []policy.Policy
		live bool // grown destinations served by their live instance
	}{{"add", all, false}, {"withdraw", w.Base, true}, {"re-add", all, true}} {
		got, err := eng.Solve(ctx, step.ps)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		want, err := core.SynthesizeContext(ctx, w.Net, w.Topo, step.ps, cold)
		if err != nil {
			t.Fatalf("%s: cold: %v", step.name, err)
		}
		for _, in := range got.Instances {
			d := in.Destination
			old, primed := before[d]
			switch {
			case !primed:
			case len(old) != len(after[d]):
				if in.Retargeted != step.live || in.Cached || in.Rebound {
					t.Errorf("%s: %v (group changed) served cached=%v rebound=%v retargeted=%v, want retargeted=%v",
						step.name, d, in.Cached, in.Rebound, in.Retargeted, step.live)
				}
			case !in.Cached:
				t.Errorf("%s: %v kept its policies but was re-solved", step.name, d)
			}
		}
		if got.Unsat() != nil || want.Unsat() != nil {
			t.Fatalf("%s: the Zoo protocol is satisfiable, got session unsat %v, cold unsat %v",
				step.name, got.Unsat(), want.Unsat())
		}
		if got.ObjectiveViolations != want.ObjectiveViolations {
			t.Errorf("%s: session cost %d, cold cost %d", step.name, got.ObjectiveViolations, want.ObjectiveViolations)
		}
		for _, v := range simulate.New(got.Updated, w.Topo).CheckAll(step.ps) {
			t.Errorf("%s: session patch violates %v", step.name, v)
		}
		t.Logf("%s: %d instances, cost %d", step.name, len(got.Instances), got.ObjectiveViolations)
	}
}
