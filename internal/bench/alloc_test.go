package bench

import (
	"context"
	"runtime"
	"testing"

	"github.com/aed-net/aed/internal/core"
)

// TestColdSynthesisAllocs bounds the garbage of cold synthesis: the
// bytes and objects one core.SynthesizeContext pass allocates over the
// golden corpus's short form (cold_fleet dc00–dc05, default options
// with two workers, so the count does not depend on the core count),
// averaged over a few passes. Most of it is CNF construction — solver
// storage, watch lists, the intern table, formula nodes — so a change
// that regrows solver storage from empty, or brings back per-variable
// names or formatted cache keys, fails here before it shows up as GC
// time in the benchmark.
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
//
// The bounds are the last figures plus 15%.
func TestColdSynthesisAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what escapes to the heap")
	}
	const (
		maxBytesPerPass   = 20_010_000
		maxObjectsPerPass = 234_485
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
