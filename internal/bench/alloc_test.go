package bench

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
)

// TestColdSynthesisAllocs bounds the garbage of cold synthesis: the
// bytes and objects one core.SynthesizeContext pass allocates over the
// golden corpus's short form (cold_fleet dc00–dc05, default options
// with two workers, so the count does not depend on the core count),
// averaged over a few passes. Most of it is CNF construction — solver
// storage, watch lists, gate literals — so a change that regrows solver
// storage from empty, or brings back per-variable names or formatted
// cache keys, fails here before it shows up as GC time in the
// benchmark.
//
// Measured per pass on linux/amd64, go1.24, GOMAXPROCS=2:
//
//	solvers grown from empty, watch lists allocated one by one, a
//	bucket-map intern table, variable names, formatted keys:
//	                                    36.4 MB, 489,945 objects
//	solvers presized from siblings, watch windows, flat intern
//	table, no names, struct keys:       26.2 MB, 272,550 objects
//	order-encoding comparisons and threshold negations built once
//	per NatVar, selector negations hoisted:
//	                                    24.6 MB, 220,100 objects
//	prefixes, rule lines and tree keys rendered without fmt, the
//	section-level config diff and the indexed simulator in the
//	post-solve check:                   24.0 MB, 209,000 objects
//	asserted constraints lowered straight to clauses, guarded
//	conjunctions distributed instead of gated:
//	                                    17.4 MB, 203,900 objects
//	the best-route preference stated against the best record (linear
//	in the candidates), guarded NatVar comparisons asserted straight
//	to clauses, a kept neighbor index in the topology:
//	                                    15.3 MB, 165,150 objects
//	binary clauses only in the watch lists, an int32 order heap, level
//	stamps grown on demand:             14.4 MB, 165,770 objects
//	structural intern table and constructor hashes deleted:
//	                                    14.0 MB, 165,740 objects
//	builders emit literals through the gate API (no formula DAG, no
//	node memo), the selector at-most-one on the preference chain:
//	                                    10.1 MB, 95,190 objects
//
// Both bounds are the last row's figures plus 15%.
func TestColdSynthesisAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what escapes to the heap")
	}
	const (
		maxBytesPerPass   = 12_195_000
		maxObjectsPerPass = 109_480
		passes            = 3
	)
	probs := coldFleetCNFInputs(1, 6)
	pass := func() {
		for _, p := range probs {
			res, err := core.SynthesizeContext(context.Background(), p.net, p.topo, p.ps, core.Options{Objectives: p.objs, Workers: 2})
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			if res.Unsat() != nil {
				t.Fatalf("%s: unsat", p.name)
			}
		}
	}
	pass() // warm up lazily built package state
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / passes
	objects := (after.Mallocs - before.Mallocs) / passes
	t.Logf("per pass: %d bytes (%.1f MB), %d objects", bytes, float64(bytes)/(1<<20), objects)
	if bytes > maxBytesPerPass {
		t.Errorf("cold synthesis allocates %d bytes per pass, bound %d", bytes, maxBytesPerPass)
	}
	if objects > maxObjectsPerPass {
		t.Errorf("cold synthesis allocates %d objects per pass, bound %d", objects, maxObjectsPerPass)
	}
}

// TestParkedSessionBytes bounds what a session keeps alive between
// solves: the live heap of an edit_stream session (editStreamCNFInputs'
// 12x3 fabric, min-lines, one parked live instance per destination)
// after a priming solve and a fixed script of local-preference flips
// (tier 2), extra-block toggles (tier 3) and resubmits (tier 1), above
// the heap before the session, each read after two collections. Most
// of it is the parked instances' solver storage: watch lists, clause
// arenas and per-variable arrays.
//
// Measured on linux/amd64, go1.24, GOMAXPROCS=2:
//
//	binary clauses in the arena and the watch lists, aux deltas kept
//	after Park, []Var/[]int order heap, a level stamp per variable:
//	                                    15.0 MB
//	binary clauses only as watchers, aux deltas dropped by Park, int32
//	order heap, level stamps grown on demand:
//	                                    10.7 MB
//	literals for the formula DAG's nodes, no SMT-level variable table
//	or retractable-selector index:
//	                                    8.72 MB
//
// The bound is the last figure plus 15%.
func TestParkedSessionBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what escapes to the heap")
	}
	const maxRetainedBytes = 10_516_000
	p := editStreamCNFInputs()
	lp120 := p.net.Clone()
	lp120.Routers["spine0"].RouteFilter("rf_edit").Rules[0].LocalPref = 120
	nets := [2]*config.Network{p.net, lp120}
	extra := append(slices.Clone(p.ps), policy.Policy{Kind: policy.Blocking,
		Src: prefix.MustParse("10.6.0.0/24"), Dst: prefix.MustParse("10.4.0.0/24")})
	sets := [2][]policy.Policy{p.ps, extra}

	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	ctx := context.Background()
	eng := core.NewEngine(p.net, p.topo, core.Options{MinimizeLines: true})
	lp, set, warm := 0, 0, 0
	solve := func(step string) {
		res, err := eng.Solve(ctx, sets[set])
		if err != nil || res.Unsat() != nil {
			t.Fatalf("%s: err=%v unsat=%v", step, err, res.Unsat())
		}
		for _, in := range res.Instances {
			if in.Rebound || in.Retargeted {
				warm++
			}
		}
	}
	solve("prime")
	for i := 0; i < 30; i++ {
		switch i % 5 {
		case 0, 2, 3: // flip
			lp ^= 1
			eng.SetNetwork(nets[lp])
		case 1: // toggle the extra block
			set ^= 1
		}
		solve(fmt.Sprintf("step %d", i))
	}
	retained := live() - before
	runtime.KeepAlive(eng)
	t.Logf("retained: %d bytes (%.2f MB); %d instances re-solved on a parked instance", retained, float64(retained)/(1<<20), warm)
	if warm == 0 {
		t.Fatal("no step was served by a parked instance")
	}
	if retained > maxRetainedBytes {
		t.Errorf("a parked edit_stream session retains %d bytes, bound %d", retained, maxRetainedBytes)
	}
}
