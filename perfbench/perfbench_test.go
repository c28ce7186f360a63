package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
)

// inputsOf serializes everything a workload generates from a seed.
func inputsOf(t *testing.T, seed int64) []byte {
	t.Helper()
	var steps []sessionState
	for _, deck := range [][]stepKind{editDeck, serviceDeck} {
		s := newScript(seed, deck)
		for range 200 {
			_, st := s.next()
			steps = append(steps, st)
		}
	}
	data, err := json.Marshal(struct {
		Cold   []problem
		Fabric fabric
		Steps  []sessionState
	}{coldFleetInputs(seed), newFabric(12, 3), steps})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputsOf(t, 7), inputsOf(t, 7)
	if string(a) != string(b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
	if string(a) == string(inputsOf(t, 8)) {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}
}

func TestScriptDealsWholeDecks(t *testing.T) {
	s := newScript(3, editDeck)
	counts := map[stepKind]int{}
	for range 10 * len(editDeck) {
		k, _ := s.next()
		counts[k]++
	}
	if counts[stepFlip] != 50 || counts[stepToggle] != 20 || counts[stepResubmit] != 30 {
		t.Fatalf("10 decks dealt %v", counts)
	}
}

// runOneBatch runs a single batch of w in a fresh phase.
func runOneBatch(w workload, traced bool) *phase {
	return measure(context.Background(), w, 0, traced)
}

// TestGateTripsOnPerturbedCost checks that the correctness gate passes
// the program's real outputs and fails every operation once the
// oracle's expected objective cost is off by one.
func TestGateTripsOnPerturbedCost(t *testing.T) {
	ctx := context.Background()
	es, err := newEditStream(ctx, 5, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cold := &coldFleet{
		items:   fleetProblems(rand.New(rand.NewSource(5)), 1, 5),
		batches: [][]int{{0, 1, 2, 3}},
		order:   rand.New(rand.NewSource(5)),
	}
	for _, w := range []benchWorkload{es, cold} {
		if err := w.prepareOracle(ctx); err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			if ph := runOneBatch(w, traced); ph.failed != 0 || ph.attempted == 0 {
				t.Fatalf("%T traced=%v: %d of %d operations failed: %v", w, traced, ph.failed, ph.attempted, ph.firstErr)
			}
		}
	}
	for k, want := range es.want {
		want.Cost++
		es.want[k] = want
	}
	for i := range cold.want {
		cold.want[i].Cost++
	}
	for _, w := range []benchWorkload{es, cold} {
		for _, traced := range []bool{false, true} {
			ph := runOneBatch(w, traced)
			if ph.failed != ph.attempted || ph.attempted == 0 {
				t.Fatalf("%T traced=%v: perturbed oracle failed %d of %d operations", w, traced, ph.failed, ph.attempted)
			}
		}
	}
}

// TestServiceMixSmoke runs one batch per client against a small fabric
// and checks that every operation matches the oracle.
func TestServiceMixSmoke(t *testing.T) {
	ctx := context.Background()
	w, err := newServiceMix(ctx, 9, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.prepareOracle(ctx); err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		ph := runOneBatch(w, traced)
		if ph.failed != 0 || ph.attempted != serviceClients*serviceBatchSteps {
			t.Fatalf("traced=%v: %d of %d failed: %v", traced, ph.failed, ph.attempted, ph.firstErr)
		}
	}
}

// TestPerLayerMatchesSpec checks that a traced run reports exactly the
// per-layer metrics workloads.json and BENCHMARK.json list.
func TestPerLayerMatchesSpec(t *testing.T) {
	ctx := context.Background()
	w, err := newEditStream(ctx, 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.prepareOracle(ctx); err != nil {
		t.Fatal(err)
	}
	plain, traced := runOneBatch(w, false), runOneBatch(w, true)
	var got, want []string
	for name := range perLayer(plain, traced) {
		got = append(got, name)
	}
	for _, m := range loadSpec().PerLayer {
		want = append(want, m.Name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("perLayer reports %v\nworkloads.json lists %v", got, want)
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, m := range bench.PerLayer {
		listed = append(listed, m.Name)
	}
	sort.Strings(listed)
	if !reflect.DeepEqual(listed, want) {
		t.Fatalf("BENCHMARK.json per_layer %v\nworkloads.json %v", listed, want)
	}
	var e2e []string
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	sort.Strings(e2e)
	reported := endToEnd(plain, []float64{1}, 50, 1)
	var names []string
	for name := range reported {
		names = append(names, name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(e2e, names) {
		t.Fatalf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, names)
	}
	for i, wl := range loadSpec().Workloads {
		if bench.Workloads[i].Name != wl.Name {
			t.Fatalf("workload %d: BENCHMARK.json %q, workloads.json %q", i, bench.Workloads[i].Name, wl.Name)
		}
		if _, ok := workloads[wl.Name]; !ok {
			t.Fatalf("workloads.json names %q, which the benchmark does not run", wl.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 9, 7, 3}, [3]float64{2, 5, 8}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	bd := bound{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	seeds := func(xs []float64) map[int64]float64 {
		m := map[int64]float64{}
		for i, x := range xs {
			m[int64(i)] = x
		}
		return m
	}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{10, 10.2, 10.1, 9.9}, []float64{8, 8.1, 7.9, 8.2}, "better"},
		{[]float64{10, 10.2, 10.1, 9.9}, []float64{12, 12.1, 11.9, 12.2}, "worse"},
		{[]float64{10, 10.2, 10.1, 9.9}, []float64{10.1, 9.95, 10.05, 10.0}, "unchanged"},
		{[]float64{5, 15, 10, 8}, []float64{6, 14, 11, 9}, "unresolved"},
	} {
		if got := verdict(c.a, c.b, seeds(c.a), seeds(c.b), bd); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}
