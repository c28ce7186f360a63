package bench

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

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
// network reaches, and in two solver calls: the first, started from
// the phases of the last optimum, finds this instance's optimum and the
// second proves it. Without the phase reset at the end of linear
// descent, the first flip back to 110 starts from the failed bound
// call's assignment and descends through ten calls.
func TestWarmResolveStartsAtLastOptimum(t *testing.T) {
	const dst = "/10.0.0.0/24"
	p := editStreamCNFInputs()
	flipped := func(i int) cnfProblem {
		q := p
		q.net = p.net.Clone()
		if i%2 == 0 {
			q.net.Routers["spine0"].RouteFilter("rf_edit").Rules[0].LocalPref = 120
		}
		return q
	}
	coldCost := map[int]int{}
	for i := range 2 {
		flipped(i).encode("edit_stream", func(key string, e *encode.Encoder, err error) {
			if strings.HasSuffix(key, dst) && err == nil {
				coldCost[i] = e.SolveContext(context.Background(), smt.LinearDescent).ViolatedWeight
			}
		})
	}
	var decisions int64
	p.encode("edit_stream", func(key string, e *encode.Encoder, err error) {
		if !strings.HasSuffix(key, dst) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if r := e.SolveContext(context.Background(), smt.Auto); !r.Sat {
			t.Fatal("cold solve unsat")
		}
		for i := range 20 {
			if _, ok := e.Rebind(flipped(i).net); !ok {
				t.Fatalf("flip %d: rebind refused", i)
			}
			r := e.ReSolveContext(context.Background(), smt.Auto)
			if !r.Sat || r.ViolatedWeight != coldCost[i%2] {
				t.Fatalf("flip %d: sat=%v cost=%d, cold cost %d", i, r.Sat, r.ViolatedWeight, coldCost[i%2])
			}
			if r.Iterations > 2 {
				t.Errorf("flip %d: %d solver calls, want 2", i, r.Iterations)
			}
			decisions += r.Stats.Decisions
		}
	})
	if len(coldCost) != 2 || decisions == 0 {
		t.Fatalf("destination %s not solved", dst)
	}
	t.Logf("mean decisions per warm re-solve: %d", decisions/20)
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
