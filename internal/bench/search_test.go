package bench

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/encode"
	"github.com/aed-net/aed/internal/sat"
	"github.com/aed-net/aed/internal/smt"
)

// TestDefaultSearchMatchesLinearCost is the in-repo oracle for the
// default MaxSAT search. Every instance of the CNF golden corpus is
// solved with smt.Auto, which searches core-guided on the fresh
// instance, then re-solved on the same encoder, where Auto takes
// linear descent over the retired core-guided scaffolding. Both must
// reach the verdict and optimal cost the golden file recorded under
// smt.LinearDescent. The summed search work of each is logged next to
// the golden's.
func TestDefaultSearchMatchesLinearCost(t *testing.T) {
	golden := cnfGoldenFields(t)
	var linear, cold, warm sat.Stats
	n := 0
	cnfCorpus(testing.Short(), func(key string, e *encode.Encoder, err error) {
		want, ok := golden[key]
		if !ok {
			t.Errorf("%s: not in the golden file", key)
			return
		}
		if err != nil {
			if want["error"] == "" {
				t.Errorf("%s: %v", key, err)
			}
			return
		}
		n++
		linear.Conflicts += want.int(t, "conflicts")
		linear.Propagations += want.int(t, "propagations")
		check := func(pass string, r *encode.Result, sum *sat.Stats) {
			t.Helper()
			if r.Err != nil {
				t.Fatalf("%s %s: %v", key, pass, r.Err)
			}
			if got := strconv.FormatBool(r.Sat); got != want["sat"] {
				t.Errorf("%s %s: sat=%s, golden sat=%s", key, pass, got, want["sat"])
			}
			if got := strconv.Itoa(r.ViolatedWeight); r.Sat && got != want["cost"] {
				t.Errorf("%s %s: cost=%s, golden cost=%s", key, pass, got, want["cost"])
			}
			sum.Conflicts += r.Stats.Conflicts
			sum.Propagations += r.Stats.Propagations
		}
		check("cold", e.SolveContext(context.Background(), smt.Auto), &cold)
		check("warm", e.ReSolveContext(context.Background(), smt.Auto), &warm)
	})
	if n == 0 {
		t.Fatal("no instances solved")
	}
	t.Logf("%d instances; golden linear descent: conflicts=%d propagations=%d", n, linear.Conflicts, linear.Propagations)
	t.Logf("default (core-guided) cold solve: conflicts=%d propagations=%d", cold.Conflicts, cold.Propagations)
	t.Logf("default (linear) warm re-solve:   conflicts=%d propagations=%d", warm.Conflicts, warm.Propagations)
}

// TestWarmResolveStartsAtLastOptimum pins the search a tier-2 edit
// runs on a core-born live instance. The edit_stream fabric's
// 10.0.0.0/24 destination is solved cold with smt.Auto (core-guided),
// then spine0's rf_edit rule flips between local preference 120 and
// 110 twenty times, each flip rebound and re-solved with Auto (linear
// descent). Every re-solve must reach the cost a cold solve of the same
// network reaches, and the twenty together in at most warmResolveCalls
// solver calls: one to find each optimum and one to prove it, plus the
// one extra call flip 0 now takes. The phase reset at the end of
// linear descent, which this total once guarded, is guarded directly
// by smt's TestLinearDescentResetsPhasesToBest; on this instance the
// total no longer depends on it.
//
// History of the bound, in solver calls over the 20 flips (with the
// reset / with the reset removed):
//   - at most 2 per flip (40 / 69): VSIDS ordered every variable in
//     its heap, and without the reset the first flip back to 110
//     descended through ten calls;
//   - 41 in total (41 / 41): never-bumped variables are decided from a
//     descending index cursor, and flip 0's first warm model costs 2
//     against an optimum of 1, a third call.
func TestWarmResolveStartsAtLastOptimum(t *testing.T) {
	const warmResolveCalls = 41
	p := editStreamCNFInputs()
	coldCost := map[int]int{}
	for i := range 2 {
		warmFlip(p, i).encode("edit_stream", func(key string, e *encode.Encoder, err error) {
			if strings.HasSuffix(key, warmDst) && err == nil {
				coldCost[i] = e.SolveContext(context.Background(), smt.LinearDescent).ViolatedWeight
			}
		})
	}
	if len(coldCost) != 2 {
		t.Fatalf("destination %s not solved", warmDst)
	}
	e := warmInstance(t, p)
	var decisions int64
	calls := 0
	for i := range 20 {
		if _, ok := e.Rebind(warmFlip(p, i).net); !ok {
			t.Fatalf("flip %d: rebind refused", i)
		}
		r := e.ReSolveContext(context.Background(), smt.Auto)
		if !r.Sat || r.ViolatedWeight != coldCost[i%2] {
			t.Fatalf("flip %d: sat=%v cost=%d, cold cost %d", i, r.Sat, r.ViolatedWeight, coldCost[i%2])
		}
		calls += r.Iterations
		decisions += r.Stats.Decisions
	}
	if calls > warmResolveCalls {
		t.Errorf("%d solver calls over 20 flips, want at most %d", calls, warmResolveCalls)
	}
	t.Logf("%d solver calls; mean decisions per warm re-solve: %d", calls, decisions/20)
}

// BenchmarkWarmResolve measures one flip of
// TestWarmResolveStartsAtLastOptimum per iteration: the rebind of the
// 12x3 fabric's 10.0.0.0/24 instance to the other rf_edit local
// preference, and the warm re-solve with smt.Auto (linear descent).
// It reports the solver calls and decisions per flip beside the time.
func BenchmarkWarmResolve(b *testing.B) {
	p := editStreamCNFInputs()
	nets := [2]*config.Network{warmFlip(p, 0).net, warmFlip(p, 1).net}
	e := warmInstance(b, p)
	var calls, decisions int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Rebind(nets[i%2]); !ok {
			b.Fatalf("flip %d: rebind refused", i)
		}
		r := e.ReSolveContext(context.Background(), smt.Auto)
		if !r.Sat {
			b.Fatalf("flip %d: unsat", i)
		}
		calls += int64(r.Iterations)
		decisions += r.Stats.Decisions
	}
	b.ReportMetric(float64(calls)/float64(b.N), "calls/op")
	b.ReportMetric(float64(decisions)/float64(b.N), "decisions/op")
}

// warmDst is the edit_stream fabric destination whose instance the
// warm re-solve test and benchmark flip.
const warmDst = "/10.0.0.0/24"

// warmFlip returns p with spine0's rf_edit rule at local preference
// 120 for even i, and at 110, as p builds it, for odd i.
func warmFlip(p cnfProblem, i int) cnfProblem {
	q := p
	q.net = p.net.Clone()
	if i%2 == 0 {
		q.net.Routers["spine0"].RouteFilter("rf_edit").Rules[0].LocalPref = 120
	}
	return q
}

// warmInstance encodes p's warmDst instance and solves it cold with
// smt.Auto (core-guided), as a session's first solve of it does.
func warmInstance(tb testing.TB, p cnfProblem) *encode.Encoder {
	tb.Helper()
	var inst *encode.Encoder
	p.encode("edit_stream", func(key string, e *encode.Encoder, err error) {
		if !strings.HasSuffix(key, warmDst) {
			return
		}
		if err != nil {
			tb.Fatal(err)
		}
		if r := e.SolveContext(context.Background(), smt.Auto); !r.Sat {
			tb.Fatal("cold solve unsat")
		}
		inst = e
	})
	if inst == nil {
		tb.Fatalf("destination %s not encoded", warmDst)
	}
	return inst
}

// goldenLine holds one golden line's key=value fields.
type goldenLine map[string]string

func (g goldenLine) int(t *testing.T, field string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(g[field], 10, 64)
	if err != nil {
		t.Fatalf("golden field %s=%q: %v", field, g[field], err)
	}
	return v
}

// cnfGoldenFields reads testdata/cnf_golden.txt (see TestCNFUnchanged)
// keyed by instance.
func cnfGoldenFields(t *testing.T) map[string]goldenLine {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "cnf_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]goldenLine{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		key, rest, _ := strings.Cut(line, " ")
		fields := goldenLine{}
		for _, kv := range strings.Fields(rest) {
			k, v, _ := strings.Cut(kv, "=")
			fields[k] = v
		}
		out[key] = fields
	}
	return out
}
