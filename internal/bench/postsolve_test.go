package bench

import (
	"context"
	"sync"
	"testing"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/simulate"
	"github.com/aed-net/aed/internal/topology"
)

// postSolveCase is edit_stream's fabric (12x3 leaf-spine, one blocking
// policy per leaf plus one extra block: 13 policies) before and after
// the edits of its priming solve — the inputs of the diff and the
// validation every solve ends with.
type postSolveCase struct {
	before, after *config.Network
	topo          *topology.Topology
	ps            []policy.Policy
}

var postSolve = sync.OnceValue(func() postSolveCase {
	p := editStreamCNFInputs()
	ps := append(append([]policy.Policy{}, p.ps...), policy.Policy{Kind: policy.Blocking,
		Src: prefix.MustParse("10.6.0.0/24"), Dst: prefix.MustParse("10.4.0.0/24")})
	res, err := core.SynthesizeContext(context.Background(), p.net, p.topo, ps, core.Options{MinimizeLines: true})
	if err != nil || res.Unsat() != nil || len(res.Violations) != 0 {
		panic("postsolve fixture: priming solve failed")
	}
	return postSolveCase{before: p.net, after: res.Updated, topo: p.topo, ps: ps}
})

func BenchmarkDiff(b *testing.B) {
	c := postSolve()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		config.Diff(c.before, c.after)
	}
}

func BenchmarkCheckAll(b *testing.B) {
	c := postSolve()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		simulate.New(c.after, c.topo).CheckAll(c.ps)
	}
}

// TestPostSolveAllocs bounds the allocations of the diff and the
// validation that end every solve, on the 12x3 fabric before and
// after its priming edits: config.Diff, and simulate.New plus CheckAll
// of the 13 policies.
//
// Measured on linux/amd64, go1.24:
//
//	whole-network leaf-set diff, map-keyed simulator, fmt rendering:
//	                      Diff 5,857 allocs, New+CheckAll 1,733 allocs
//	section-level diff, indexed simulator, fmt-free rendering:
//	                      Diff 1,195 allocs, New+CheckAll 124 allocs
//	(the same, re-measured after the encoder's CNF changes moved the
//	patch's edits onto more routers):
//	                      Diff 1,275 allocs, New+CheckAll 125 allocs
//	leaf lines rendered from the model, compared by a sort-merge:
//	                      Diff 188 allocs, New+CheckAll 125 allocs
//
// The bounds are the last figures plus 15%.
func TestPostSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what escapes to the heap")
	}
	const maxDiffAllocs, maxCheckAllocs = 217, 143
	c := postSolve()
	if d := config.Diff(c.before, c.after); d.LinesChanged() == 0 {
		t.Fatal("the priming solve changed no line")
	}
	if vs := simulate.New(c.after, c.topo).CheckAll(c.ps); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	diff := testing.AllocsPerRun(20, func() { config.Diff(c.before, c.after) })
	check := testing.AllocsPerRun(20, func() { simulate.New(c.after, c.topo).CheckAll(c.ps) })
	t.Logf("Diff %.0f allocs, New+CheckAll %.0f allocs", diff, check)
	if diff > maxDiffAllocs {
		t.Errorf("config.Diff allocates %.0f objects, bound %d", diff, maxDiffAllocs)
	}
	if check > maxCheckAllocs {
		t.Errorf("simulate.New+CheckAll allocates %.0f objects, bound %d", check, maxCheckAllocs)
	}
}
