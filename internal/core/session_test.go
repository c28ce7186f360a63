package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
)

// sessionFixture is a 3-leaf/2-spine fabric with one blocking policy
// per leaf subnet, giving three independent destination instances.
func sessionFixture(t *testing.T) (*Engine, []policy.Policy, *obs.Tracer) {
	t.Helper()
	net, topo := leafSpineNet(t, 3, 2)
	ps, err := policy.Parse(`block 10.0.0.0/24 -> 10.1.0.0/24
block 10.1.0.0/24 -> 10.2.0.0/24
block 10.2.0.0/24 -> 10.0.0.0/24
`)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	opts := DefaultOptions()
	opts.Sequential = true
	opts.MinimizeLines = true
	opts.Tracer = tr
	return NewEngine(net, topo, opts), ps, tr
}

func cacheCounters(tr *obs.Tracer) (hits, misses, invalidations int64) {
	m := tr.Metrics()
	return m.Counter("session.cache.hits").Value(),
		m.Counter("session.cache.misses").Value(),
		m.Counter("session.cache.invalidations").Value()
}

func freshInstances(res *Result) []prefix.Prefix {
	var fresh []prefix.Prefix
	for _, in := range res.Instances {
		if !in.Cached {
			fresh = append(fresh, in.Destination)
		}
	}
	return fresh
}

func TestSessionWarmSolveAllHits(t *testing.T) {
	eng, ps, tr := sessionFixture(t)
	ctx := context.Background()

	cold, err := eng.Solve(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Unsat() != nil || len(cold.Violations) != 0 {
		t.Fatalf("cold solve failed: unsat=%v violations=%v", cold.Unsat(), cold.Violations)
	}
	hits, misses, inval := cacheCounters(tr)
	if hits != 0 || misses != 3 || inval != 0 {
		t.Fatalf("cold counters = %d/%d/%d, want 0 hits, 3 misses, 0 invalidations",
			hits, misses, inval)
	}
	if n := len(freshInstances(cold)); n != 3 {
		t.Fatalf("cold solve re-solved %d instances, want 3", n)
	}

	warm, err := eng.Solve(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, inval = cacheCounters(tr)
	if hits != 3 || misses != 3 || inval != 0 {
		t.Fatalf("warm counters = %d/%d/%d, want 3 hits, 3 misses, 0 invalidations",
			hits, misses, inval)
	}
	if n := len(freshInstances(warm)); n != 0 {
		t.Errorf("identical warm solve re-solved %d instances, want 0", n)
	}
	if warm.Unsat() != nil || len(warm.Violations) != 0 {
		t.Errorf("warm solve diverged: unsat=%v violations=%v", warm.Unsat(), warm.Violations)
	}
	if len(warm.Edits) != len(cold.Edits) {
		t.Errorf("warm solve returned %d edits, cold %d", len(warm.Edits), len(cold.Edits))
	}
	if warm.Solver.Conflicts != 0 || warm.SolveTime != 0 {
		t.Errorf("fully cached solve should report zero solver work, got %+v", warm.Solver)
	}
}

func TestSessionPolicyEditResolvesOnlyThatDestination(t *testing.T) {
	eng, ps, tr := sessionFixture(t)
	ctx := context.Background()
	if _, err := eng.Solve(ctx, ps); err != nil {
		t.Fatal(err)
	}

	// Edit the policy group for destination 10.2.0.0/24 only.
	edited, err := policy.Parse(`block 10.0.0.0/24 -> 10.1.0.0/24
reach 10.1.0.0/24 -> 10.2.0.0/24
block 10.2.0.0/24 -> 10.0.0.0/24
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Solve(ctx, edited)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unsat() != nil || len(res.Violations) != 0 {
		t.Fatalf("edited solve failed: unsat=%v violations=%v", res.Unsat(), res.Violations)
	}

	hits, misses, inval := cacheCounters(tr)
	// Second call: N-1 = 2 hits, exactly one miss and one invalidation
	// on top of the 3 cold misses.
	if hits != 2 || misses != 4 || inval != 1 {
		t.Fatalf("counters after policy edit = %d/%d/%d, want 2 hits, 4 misses, 1 invalidation",
			hits, misses, inval)
	}
	fresh := freshInstances(res)
	if len(fresh) != 1 || !fresh[0].Equal(prefix.MustParse("10.2.0.0/24")) {
		t.Errorf("re-solved destinations = %v, want exactly [10.2.0.0/24]", fresh)
	}
}

func TestSessionConfigEditDirtiesOnlyRelevantDestinations(t *testing.T) {
	eng, ps, tr := sessionFixture(t)
	ctx := context.Background()
	if _, err := eng.Solve(ctx, ps); err != nil {
		t.Fatal(err)
	}

	// Append an unreachable packet-filter rule on spine0 whose Dst
	// overlaps only 10.1.0.0/24. It sits after the template's terminal
	// permit-any, so forwarding semantics are unchanged — but the rule
	// is part of destination 10.1.0.0/24's relevant subtree (and, with
	// pruning on, of no other destination's).
	next := eng.Network().Clone()
	pf := next.Routers["spine0"].PacketFilters[0]
	pf.Rules = append(pf.Rules, &config.PacketRule{
		Permit: true,
		Src:    prefix.Prefix{},
		Dst:    prefix.MustParse("10.1.0.0/24"),
	})
	eng.SetNetwork(next)

	res, err := eng.Solve(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, inval := cacheCounters(tr)
	if hits != 2 || misses != 4 || inval != 1 {
		t.Fatalf("counters after config edit = %d/%d/%d, want 2 hits, 4 misses, 1 invalidation",
			hits, misses, inval)
	}
	fresh := freshInstances(res)
	if len(fresh) != 1 || !fresh[0].Equal(prefix.MustParse("10.1.0.0/24")) {
		t.Errorf("re-solved destinations = %v, want exactly [10.1.0.0/24]", fresh)
	}
}

func TestSessionInvalidateForcesColdSolve(t *testing.T) {
	eng, ps, tr := sessionFixture(t)
	ctx := context.Background()
	if _, err := eng.Solve(ctx, ps); err != nil {
		t.Fatal(err)
	}
	eng.Invalidate()
	if _, err := eng.Solve(ctx, ps); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := cacheCounters(tr)
	if hits != 0 || misses != 6 {
		t.Errorf("counters after Invalidate = %d hits / %d misses, want 0/6", hits, misses)
	}
}

func TestSessionUnsatCachedConflict(t *testing.T) {
	net, topo := leafSpineNet(t, 2, 1)
	ps, _ := policy.Parse(`reach 10.0.0.0/24 -> 10.1.0.0/24
block 10.0.0.0/24 -> 10.1.0.0/24
`)
	opts := DefaultOptions()
	opts.Sequential = true
	opts.Explain = true
	eng := NewEngine(net, topo, opts)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		res, err := eng.Solve(ctx, ps)
		if err != nil {
			t.Fatal(err)
		}
		u := res.Unsat()
		if u == nil {
			t.Fatalf("solve %d: contradictory policies must be unsat", i)
		}
		d := prefix.MustParse("10.1.0.0/24")
		if len(u.Destinations) != 1 || !u.Destinations[0].Equal(d) {
			t.Fatalf("solve %d: unsat destinations = %v", i, u.Destinations)
		}
		if len(u.Conflicts[d]) == 0 {
			t.Errorf("solve %d: cached unsat entry lost its conflict explanation", i)
		}
	}
}

// TestSessionParallelConcurrentSolve exercises the cache with the
// parallel per-destination pool and concurrent Solve callers; run
// under -race this checks the engine's synchronization.
func TestSessionParallelConcurrentSolve(t *testing.T) {
	net, topo := leafSpineNet(t, 3, 2)
	ps, _ := policy.Parse(`block 10.0.0.0/24 -> 10.1.0.0/24
block 10.1.0.0/24 -> 10.2.0.0/24
block 10.2.0.0/24 -> 10.0.0.0/24
`)
	opts := DefaultOptions() // parallel instance solving is the default
	opts.MinimizeLines = true
	opts.Tracer = obs.NewTracer()
	eng := NewEngine(net, topo, opts)

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := eng.Solve(context.Background(), ps)
			if err == nil && res.Unsat() != nil {
				err = res.Unsat()
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent solve %d: %v", i, err)
		}
	}
	m := opts.Tracer.Metrics()
	total := m.Counter("session.cache.hits").Value() + m.Counter("session.cache.misses").Value()
	if total != 12 {
		t.Errorf("hits+misses = %d, want 12 (4 solves x 3 destinations)", total)
	}
	// Solves are serialized, so everything after the first cold call
	// must hit.
	if h := m.Counter("session.cache.hits").Value(); h != 9 {
		t.Errorf("hits = %d, want 9", h)
	}
}

func TestSessionSolveCanceled(t *testing.T) {
	eng, ps, _ := sessionFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Solve(ctx, ps); err != context.Canceled {
		t.Fatalf("Solve on canceled context returned %v, want context.Canceled", err)
	}
	// The session must remain usable after a canceled call.
	res, err := eng.Solve(context.Background(), ps)
	if err != nil || res.Unsat() != nil {
		t.Fatalf("solve after cancellation: err=%v", err)
	}
}

// rebindFixture is a 2-leaf/1-spine fabric with an editable route
// filter on spine0's adjacency toward leaf1, matching destination
// 10.1.0.0/24 only. An unattached anchor filter pins local preferences
// 110 and 120 into the network-wide lp domain so toggling the editable
// rule between them keeps the shared fingerprint (and hence tier-2
// eligibility) stable.
func rebindFixture(t *testing.T, opts Options) (*Engine, []policy.Policy, *obs.Tracer) {
	t.Helper()
	net, topo := leafSpineNet(t, 2, 1)
	spine := net.Routers["spine0"]
	spine.RouteFilters = append(spine.RouteFilters,
		&config.RouteFilter{Name: "rf_edit", Rules: []*config.RouteRule{
			{Permit: true, Prefix: prefix.MustParse("10.1.0.0/24"), LocalPref: 110},
		}},
		&config.RouteFilter{Name: "rf_anchor", Rules: []*config.RouteRule{
			{Permit: true, Prefix: prefix.MustParse("10.9.0.0/24"), LocalPref: 110},
			{Permit: true, Prefix: prefix.MustParse("10.9.0.0/24"), LocalPref: 120},
		}},
	)
	spine.Process(config.OSPF).Adjacency("leaf1").InFilter = "rf_edit"
	ps, err := policy.Parse(`block 10.0.0.0/24 -> 10.1.0.0/24
block 10.1.0.0/24 -> 10.0.0.0/24
`)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	opts.Sequential = true
	opts.MinimizeLines = true
	opts.Tracer = tr
	return NewEngine(net, topo, opts), ps, tr
}

func rebindCounters(tr *obs.Tracer) (resolves, ineligible int64) {
	m := tr.Metrics()
	return m.Counter("session.rebind.resolves").Value(),
		m.Counter("session.rebind.ineligible").Value()
}

// editLocalPref returns a clone of the engine's network with the
// editable rule's local preference set to lp.
func editLocalPref(eng *Engine, lp int) *config.Network {
	next := eng.Network().Clone()
	next.Routers["spine0"].RouteFilter("rf_edit").Rules[0].LocalPref = lp
	return next
}

func TestSessionRebindOnVolatileEdit(t *testing.T) {
	eng, ps, tr := rebindFixture(t, DefaultOptions())
	ctx := context.Background()
	cold, err := eng.Solve(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	coldDeltas := map[string]int{}
	for _, in := range cold.Instances {
		coldDeltas[in.Destination.String()] = in.NumDeltas
	}

	eng.SetNetwork(editLocalPref(eng, 120))
	res, err := eng.Solve(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unsat() != nil || len(res.Violations) != 0 {
		t.Fatalf("rebind solve failed: unsat=%v violations=%v", res.Unsat(), res.Violations)
	}

	// Only destination 10.1.0.0/24 is dirtied (the rule matches nothing
	// else), and it must have been re-solved on the live instance.
	var rebound []prefix.Prefix
	for _, in := range res.Instances {
		if in.Rebound {
			rebound = append(rebound, in.Destination)
			// Park dropped the aux deltas; the count stays the encode's.
			if want := coldDeltas[in.Destination.String()]; in.NumDeltas != want {
				t.Errorf("%v: rebound NumDeltas = %d, cold encode %d", in.Destination, in.NumDeltas, want)
			}
		}
		if in.Cached && in.Rebound {
			t.Errorf("%v flagged both cached and rebound", in.Destination)
		}
	}
	if len(rebound) != 1 || !rebound[0].Equal(prefix.MustParse("10.1.0.0/24")) {
		t.Fatalf("rebound destinations = %v, want exactly [10.1.0.0/24]", rebound)
	}
	if resolves, ineligible := rebindCounters(tr); resolves != 1 || ineligible != 0 {
		t.Errorf("rebind counters = %d resolves / %d ineligible, want 1/0", resolves, ineligible)
	}
	hits, _, inval := cacheCounters(tr)
	if hits != 1 || inval != 1 {
		t.Errorf("cache counters = %d hits / %d invalidations, want 1/1", hits, inval)
	}

	// Toggle back: the live instance survives its own rebind and flips
	// again, this round fully from memoized handles.
	eng.SetNetwork(editLocalPref(eng, 110))
	res, err = eng.Solve(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unsat() != nil || len(res.Violations) != 0 {
		t.Fatalf("second rebind solve failed: unsat=%v violations=%v", res.Unsat(), res.Violations)
	}
	if resolves, _ := rebindCounters(tr); resolves != 2 {
		t.Errorf("rebind resolves = %d after round trip, want 2", resolves)
	}
}

func TestSessionStructuralEditFallsBackToReencode(t *testing.T) {
	eng, ps, tr := rebindFixture(t, DefaultOptions())
	ctx := context.Background()
	if _, err := eng.Solve(ctx, ps); err != nil {
		t.Fatal(err)
	}

	// Adding a rule is structural: the rebind attempt must refuse and
	// the destination re-encodes from scratch.
	next := eng.Network().Clone()
	f := next.Routers["spine0"].RouteFilter("rf_edit")
	f.Rules = append(f.Rules, &config.RouteRule{Permit: true, Prefix: prefix.MustParse("10.1.0.0/24")})
	eng.SetNetwork(next)

	res, err := eng.Solve(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unsat() != nil || len(res.Violations) != 0 {
		t.Fatalf("structural solve failed: unsat=%v violations=%v", res.Unsat(), res.Violations)
	}
	for _, in := range res.Instances {
		if in.Rebound {
			t.Errorf("%v rebound across a structural change", in.Destination)
		}
	}
	if resolves, ineligible := rebindCounters(tr); resolves != 0 || ineligible != 1 {
		t.Errorf("rebind counters = %d resolves / %d ineligible, want 0/1", resolves, ineligible)
	}
}

func TestSessionNoLiveInstancesNeverRebinds(t *testing.T) {
	opts := DefaultOptions()
	opts.NoLiveInstances = true
	eng, ps, tr := rebindFixture(t, opts)
	ctx := context.Background()
	if _, err := eng.Solve(ctx, ps); err != nil {
		t.Fatal(err)
	}

	eng.SetNetwork(editLocalPref(eng, 120))
	res, err := eng.Solve(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unsat() != nil || len(res.Violations) != 0 {
		t.Fatalf("solve failed: unsat=%v violations=%v", res.Unsat(), res.Violations)
	}
	for _, in := range res.Instances {
		if in.Rebound {
			t.Errorf("%v rebound with live-instance retention disabled", in.Destination)
		}
	}
	if resolves, ineligible := rebindCounters(tr); resolves != 0 || ineligible != 0 {
		t.Errorf("rebind counters = %d resolves / %d ineligible, want 0/0", resolves, ineligible)
	}
}

func TestSessionInvalidateDropsLiveInstances(t *testing.T) {
	eng, ps, tr := rebindFixture(t, DefaultOptions())
	ctx := context.Background()
	if _, err := eng.Solve(ctx, ps); err != nil {
		t.Fatal(err)
	}
	eng.Invalidate()

	// With the cache gone, an otherwise-rebindable edit solves cold.
	eng.SetNetwork(editLocalPref(eng, 120))
	if _, err := eng.Solve(ctx, ps); err != nil {
		t.Fatal(err)
	}
	if resolves, ineligible := rebindCounters(tr); resolves != 0 || ineligible != 0 {
		t.Errorf("rebind counters = %d resolves / %d ineligible after Invalidate, want 0/0", resolves, ineligible)
	}
}

// TestSessionPanicDropsLiveInstance breaks two destinations' live
// instances so that re-solving either panics on its worker. The Solve
// call must fail with the recovered panics instead of crashing, and
// drop both destinations' cache entries, live instances and all; the
// next call re-encodes them from scratch and succeeds.
func TestSessionPanicDropsLiveInstance(t *testing.T) {
	eng, ps, _ := sessionFixture(t)
	ctx := context.Background()
	if _, err := eng.Solve(ctx, ps); err != nil {
		t.Fatal(err)
	}
	broken := []prefix.Prefix{prefix.MustParse("10.1.0.0/24"), prefix.MustParse("10.2.0.0/24")}
	for _, d := range broken {
		eng.cache[d].enc.Ctx = nil // any use of the context now panics
	}

	edited, err := policy.Parse(`reach 10.0.0.0/24 -> 10.1.0.0/24
reach 10.1.0.0/24 -> 10.2.0.0/24
block 10.2.0.0/24 -> 10.0.0.0/24
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Solve(ctx, edited)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("solve over broken instances: err = %v, want a PanicError", err)
	}
	for _, d := range broken {
		if !strings.Contains(err.Error(), d.String()) {
			t.Errorf("solve over broken instances: err = %v, does not name %v", err, d)
		}
		if _, ok := eng.cache[d]; ok {
			t.Errorf("%v kept its cache entry after a panic", d)
		}
	}
	res, err := eng.Solve(ctx, edited)
	if err != nil {
		t.Fatalf("solve after the panic: %v", err)
	}
	if res.Unsat() != nil || len(res.Violations) != 0 {
		t.Fatalf("solve after the panic: unsat=%v violations=%v", res.Unsat(), res.Violations)
	}
	for _, in := range res.Instances {
		if slices.ContainsFunc(broken, in.Destination.Equal) && (in.Cached || in.Rebound || in.Retargeted) {
			t.Errorf("%v was not re-encoded after its panic: %+v", in.Destination, in)
		}
	}
}

// TestSessionDestinationSpanPerTier checks the span each dirty
// destination gets: one `destination` span whichever tier serves it. A
// policy new to the live instance re-encodes (an `encode` child, no
// rebind attribute); removing it again and re-adding it show as
// rebind=true with policies_retracted=1, then policies_added=1, and no
// `encode` child; a structural edit the live instance refuses
// re-encodes under the same single span.
func TestSessionDestinationSpanPerTier(t *testing.T) {
	eng, ps, tr := sessionFixture(t)
	ctx := context.Background()
	if _, err := eng.Solve(ctx, ps); err != nil {
		t.Fatal(err)
	}
	// spanOf returns the one destination span the next solve opens for
	// 10.2.0.0/24, and the names of its children.
	spanOf := func(step string, ps []policy.Policy) (obs.SpanRecord, []string) {
		t.Helper()
		_, from := tr.SpansFrom(0)
		if _, err := eng.Solve(ctx, ps); err != nil {
			t.Fatal(err)
		}
		recs, _ := tr.SpansFrom(from)
		var dests []obs.SpanRecord
		kids := map[uint64][]string{}
		for _, r := range recs {
			if r.Name == "destination" && r.Attrs["dest"] == "10.2.0.0/24" {
				dests = append(dests, r)
			}
			kids[r.Parent] = append(kids[r.Parent], r.Name)
		}
		if len(dests) != 1 {
			t.Fatalf("%s: %d destination spans for 10.2.0.0/24, want 1", step, len(dests))
		}
		return dests[0], kids[dests[0].ID]
	}

	added := append(slices.Clone(ps), policy.Policy{Kind: policy.Blocking,
		Src: prefix.MustParse("10.0.0.0/24"), Dst: prefix.MustParse("10.2.0.0/24")})
	if d, kids := spanOf("new policy", added); d.Attrs["rebind"] != nil || !slices.Contains(kids, "encode") {
		t.Errorf("new policy: want a re-encode, got attributes %v, children %v", d.Attrs, kids)
	}
	for _, step := range []struct {
		name             string
		ps               []policy.Policy
		added, retracted int64
	}{{"removal", ps, 0, 1}, {"re-addition", added, 1, 0}} {
		d, kids := spanOf(step.name, step.ps)
		if d.Attrs["rebind"] != true || d.Attrs["policies_added"] != step.added ||
			d.Attrs["policies_retracted"] != step.retracted || slices.Contains(kids, "encode") {
			t.Errorf("%s: destination span attributes %v, children %v", step.name, d.Attrs, kids)
		}
	}

	next := eng.Network().Clone()
	leaf := next.Routers["leaf2"]
	leaf.StaticRoutes = append(leaf.StaticRoutes, &config.StaticRoute{
		Prefix: prefix.MustParse("10.9.0.0/24"), NextHop: "spine0"})
	eng.SetNetwork(next)
	if d, kids := spanOf("structural edit", added); d.Attrs["rebind"] != nil || !slices.Contains(kids, "encode") {
		t.Errorf("structural edit: want a re-encode under one span, got attributes %v, children %v", d.Attrs, kids)
	}
}
