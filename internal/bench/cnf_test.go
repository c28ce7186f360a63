package bench

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/aed-net/aed/internal/api"
	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/encode"
	"github.com/aed-net/aed/internal/objective"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/smt"
	"github.com/aed-net/aed/internal/topology"
)

// TestCNFUnchanged pins the CNF the encoder emits for the perfbench
// cold_fleet and edit_stream inputs (seed 1), and the search the solver
// runs over it: per instance, the SAT variable and clause counts after
// encoding and after the MaxSAT solve, the structural-intern hit/miss
// counts, and the solve's decision, conflict and propagation counts.
// Changes to the CNF construction machinery (Tseitin memo, solver
// growth, clause normalization) or to solver plumbing that must not
// alter the search must leave every line identical; a deliberate change
// to the encoding or the search heuristics regenerates the file with
//
//	go test ./internal/bench -run TestCNFUnchanged -update-cnf
//
// which refuses to write when any instance's outcome (sat=, cost=)
// would change: a regeneration may move sizes and search counters
// only. -short checks the cold_fleet members dc00–dc05 only.
func TestCNFUnchanged(t *testing.T) {
	got := cnfLines(testing.Short())
	path := filepath.Join("testdata", "cnf_golden.txt")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, _, _ := strings.Cut(sc.Text(), " ")
		want[key] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if *updateCNF {
		if testing.Short() {
			t.Fatal("-update-cnf needs the full corpus: drop -short")
		}
		if bad := outcomeChanges(want, got); len(bad) > 0 {
			t.Fatalf("refusing to rewrite %s: a regeneration may change sizes and search counters, never an outcome:\n%s",
				path, strings.Join(bad, "\n"))
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, line := range got {
		key, _, _ := strings.Cut(line, " ")
		if w, ok := want[key]; !ok {
			t.Errorf("%s: not in %s", key, path)
		} else if w != line {
			t.Errorf("CNF changed:\n got %s\nwant %s", line, w)
		}
	}
}

// outcomeChanges lists the instances whose outcome — the sat= and
// cost= fields, or an error= — differs between the golden lines want
// and the regenerated lines got, and the instances either side lacks.
func outcomeChanges(want map[string]string, got []string) []string {
	outcome := func(line string) string {
		var kept []string
		for _, kv := range strings.Fields(line)[1:] {
			if k, _, _ := strings.Cut(kv, "="); k == "sat" || k == "cost" || k == "error" {
				kept = append(kept, kv)
			}
		}
		return strings.Join(kept, " ")
	}
	var bad []string
	seen := map[string]bool{}
	for _, line := range got {
		key, _, _ := strings.Cut(line, " ")
		seen[key] = true
		w, ok := want[key]
		switch {
		case !ok:
			bad = append(bad, key+": not in the golden file")
		case outcome(w) != outcome(line):
			bad = append(bad, fmt.Sprintf("%s: %s, golden %s", key, outcome(line), outcome(w)))
		}
	}
	for key := range want {
		if !seen[key] {
			bad = append(bad, key+": no longer produced")
		}
	}
	sort.Strings(bad)
	return bad
}

var updateCNF = flag.Bool("update-cnf", false, "rewrite testdata/cnf_golden.txt from the current encoder")

// cnfLines encodes and solves every instance and renders one line per
// instance: "<workload>/<problem>/<destination> vars=… clauses=…
// hits=… misses=… sat=… cost=… solved_vars=… solved_clauses=…
// decisions=… conflicts=… propagations=…".
func cnfLines(short bool) []string {
	var out []string
	cnfCorpus(short, func(key string, e *encode.Encoder, err error) {
		if err != nil {
			out = append(out, key+" error="+err.Error())
			return
		}
		hits, misses := e.Ctx.InternStats()
		line := key + fmt.Sprintf(" vars=%d clauses=%d hits=%d misses=%d",
			e.Ctx.NumSATVars(), e.Ctx.NumSATClauses(), hits, misses)
		r := e.SolveContext(context.Background(), smt.LinearDescent)
		line += fmt.Sprintf(" sat=%v cost=%d solved_vars=%d solved_clauses=%d decisions=%d conflicts=%d propagations=%d",
			r.Sat, r.ViolatedWeight, e.Ctx.NumSATVars(), e.Ctx.NumSATClauses(),
			r.Stats.Decisions, r.Stats.Conflicts, r.Stats.Propagations)
		out = append(out, line)
	})
	return out
}

// cnfCorpus encodes every instance of the golden corpus, in golden
// order, and hands each to f (see cnfProblem.encode). -short keeps the
// cold_fleet members dc00–dc05.
func cnfCorpus(short bool, f func(key string, e *encode.Encoder, err error)) {
	members := 12
	if short {
		members = 6
	}
	for _, p := range coldFleetCNFInputs(1, members) {
		p.encode("cold_fleet", f)
	}
	if !short {
		editStreamCNFInputs().encode("edit_stream", f)
	}
}

// cnfProblem is one synthesis problem, taken through the text formats
// the benchmark feeds the pipeline.
type cnfProblem struct {
	name string
	net  *config.Network
	topo *topology.Topology
	ps   []policy.Policy
	objs []objective.Objective // nil: penalize every delta (session mode)
}

func newCNFProblem(name string, net *config.Network, topo *topology.Topology, ps []policy.Policy, objs []objective.Objective) cnfProblem {
	parsed, err := config.ParseNetwork(config.PrintNetwork(net))
	if err != nil {
		panic(err)
	}
	ptopo, err := topology.ParseText("bench", api.FormatTopology(topo))
	if err != nil {
		panic(err)
	}
	pps, err := policy.Parse(policy.Format(ps))
	if err != nil {
		panic(err)
	}
	return cnfProblem{name: name, net: parsed, topo: ptopo, ps: pps, objs: objs}
}

// encode builds every destination instance of p, in prefix order, and
// hands each to f under its key "<workload>/<problem>/<destination>",
// or the encoding error with a nil encoder.
func (p cnfProblem) encode(workload string, f func(key string, e *encode.Encoder, err error)) {
	groups := policy.GroupByDestination(policy.SubdividePolicies(policy.Dedup(p.ps)))
	var dests []prefix.Prefix
	for d := range groups {
		dests = append(dests, d)
	}
	prefix.Sort(dests)
	for _, d := range dests {
		e := encode.New(p.net, p.topo, d, encode.Options{})
		key := fmt.Sprintf("%s/%s/%s", workload, p.name, d)
		if err := e.EncodePolicies(groups[d]); err != nil {
			f(key, nil, err)
			continue
		}
		if p.objs != nil {
			tree := config.Tree(p.net)
			encode.AugmentTree(tree, e.Deltas())
			e.AddObjectives(objective.InstantiateAll(p.objs, tree))
		} else {
			e.PenalizeDeltas(1)
		}
		f(key, e, nil)
	}
}

// coldFleetCNFInputs mirrors perfbench's cold_fleet corpus for one
// draw: fleet members dc00.. under two seeded blocking policies each and
// Table 2 set (i+3) mod 5, plus the fixed Zoo-30 WAN under min-devices.
func coldFleetCNFInputs(seed int64, members int) []cnfProblem {
	sets := []string{"preserve-templates", "min-devices", "min-pfs", "avoid-static", "min-lines"}
	rng := rand.New(rand.NewSource(seed))
	var out []cnfProblem
	for i, dc := range DCFleet(12, 0)[:members] {
		blocked := BlockingWorkload(dc.Net, dc.Topo, 2, rng.Int63())
		ps := append(RemainingBase(dc.Base, blocked), blocked...)
		objs, err := objective.Named(sets[(i+3)%len(sets)])
		if err != nil {
			panic(err)
		}
		out = append(out, newCNFProblem(fmt.Sprintf("dc%02d", i), dc.Net, dc.Topo, ps, objs))
	}
	if members < 12 {
		return out
	}
	zw := ZooWorkload(30, 8, 8, 1)
	objs, err := objective.Named("min-devices")
	if err != nil {
		panic(err)
	}
	ps := append(append([]policy.Policy{}, zw.Base...), zw.New...)
	return append(out, newCNFProblem("zoo30", zw.Net, zw.Topo, ps, objs))
}

// editStreamCNFInputs mirrors perfbench's edit_stream fabric: the 12x3
// leaf-spine with spine0's rf_edit/rf_anchor filters at local
// preference 110 and one blocking policy per leaf subnet, encoded in
// session mode (every delta penalized).
func editStreamCNFInputs() cnfProblem {
	const leaves = 12
	topo := topology.LeafSpine(leaves, 3, 1)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF, WithRoleFilters: true})
	spine := net.Routers["spine0"]
	spine.RouteFilters = append(spine.RouteFilters,
		&config.RouteFilter{Name: "rf_edit", Rules: []*config.RouteRule{
			{Permit: true, Prefix: prefix.MustParse("10.0.0.0/24"), LocalPref: 110},
		}},
		&config.RouteFilter{Name: "rf_anchor", Rules: []*config.RouteRule{
			{Permit: true, Prefix: prefix.MustParse("10.200.0.0/24"), LocalPref: 110},
			{Permit: true, Prefix: prefix.MustParse("10.200.0.0/24"), LocalPref: 120},
		}},
	)
	spine.Process(config.OSPF).Adjacency("leaf0").InFilter = "rf_edit"
	var base strings.Builder
	for d := 0; d < leaves; d++ {
		fmt.Fprintf(&base, "block 10.%d.0.0/24 -> 10.%d.0.0/24\n", (d+1)%leaves, d)
	}
	ps, err := policy.Parse(base.String())
	if err != nil {
		panic(err)
	}
	return newCNFProblem("fabric12x3", net, topo, ps, nil)
}
