package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// bound is one end-to-end metric of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b.EndToEnd, nil
}

// loadRecords reads the untraced run records of a file written with
// --out, grouped by workload.
func loadRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the quartiles as a share of the
// median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(percentile(xs, 50))
}

// values extracts one metric from records, keyed by seed.
func values(recs []record, name string) (vals []float64, bySeed map[int64]float64) {
	bySeed = map[int64]float64{}
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
			bySeed[r.Seed] = m.Value
		}
	}
	return vals, bySeed
}

// verdict judges change b against parent a for one metric:
//
//   - better or worse when every run of one side beats every run of the
//     other;
//   - unresolved when either side's spread exceeds the bound;
//   - worse when b's median is worse than a's by more than the bound;
//   - better when b wins at least 9 in 10 seed-paired runs and the
//     medians differ by more than a's quartile distance;
//   - unchanged otherwise.
func verdict(a, b []float64, aSeed, bSeed map[int64]float64, bd bound) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	lower := bd.Better == "lower"
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	bestA, worstA, bestB, worstB := sa[len(sa)-1], sa[0], sb[len(sb)-1], sb[0]
	if lower {
		bestA, worstA, bestB, worstB = sa[0], sa[len(sa)-1], sb[0], sb[len(sb)-1]
	}
	switch {
	case better(worstB, bestA):
		return "better"
	case better(worstA, bestB):
		return "worse"
	case spread(a) > bd.Bound || spread(b) > bd.Bound:
		return "unresolved"
	}
	ma, mb := percentile(a, 50), percentile(b, 50)
	if better(ma, mb) && math.Abs(mb-ma) > bd.Bound*math.Abs(ma) {
		return "worse"
	}
	wins, pairs := 0, 0
	for seed, va := range aSeed {
		if vb, ok := bSeed[seed]; ok {
			pairs++
			if better(vb, va) {
				wins++
			}
		}
	}
	q1, _, q3 := quartiles(a)
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && better(mb, ma) && math.Abs(mb-ma) > q3-q1 {
		return "better"
	}
	return "unchanged"
}

func compareFiles(w io.Writer, boundsPath, aPath, bPath string) error {
	bounds, err := loadBounds(boundsPath)
	if err != nil {
		return err
	}
	a, err := loadRecords(aPath)
	if err != nil {
		return err
	}
	b, err := loadRecords(bPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s\nB = %s\n", aPath, bPath)
	fmt.Fprintf(w, "%-12s %-17s %5s %12s %12s %12s %12s %12s %12s %6s  %s\n",
		"workload", "metric", "bound", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "n", "verdict")
	for _, wl := range sortedKeys(a, b) {
		for _, bd := range bounds {
			va, sa := values(a[wl], bd.Name)
			vb, sb := values(b[wl], bd.Name)
			aq1, _, aq3 := quartiles(va)
			bq1, _, bq3 := quartiles(vb)
			fmt.Fprintf(w, "%-12s %-17s %5.2f %12.4f %12.4f %12.4f %12.4f %12.4f %12.4f %3d/%-3d %s\n",
				wl, bd.Name, bd.Bound, aq1, percentile(va, 50), aq3, bq1, percentile(vb, 50), bq3, len(va), len(vb),
				verdict(va, vb, sa, sb, bd))
		}
		fmt.Fprintf(w, "%-12s %-17s failed A %d/%d, B %d/%d\n", wl, "operations",
			failed(a[wl]), attempted(a[wl]), failed(b[wl]), attempted(b[wl]))
	}
	return nil
}

// summarizeFiles prints each metric's median and quartiles over the
// runs in the files, with its spread against its bound: the check a
// benchmark's steadiness is judged by.
func summarizeFiles(w io.Writer, boundsPath string, paths []string) error {
	bounds, err := loadBounds(boundsPath)
	if err != nil {
		return err
	}
	all := map[string][]record{}
	for _, p := range paths {
		recs, err := loadRecords(p)
		if err != nil {
			return err
		}
		for wl, rs := range recs {
			all[wl] = append(all[wl], rs...)
		}
	}
	fmt.Fprintf(w, "%-12s %-17s %4s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "n", "q1", "median", "q3", "spread", "bound", "steady (spread < bound/3)")
	for _, wl := range sortedKeys(all) {
		for _, bd := range bounds {
			v, _ := values(all[wl], bd.Name)
			q1, _, q3 := quartiles(v)
			s := spread(v)
			fmt.Fprintf(w, "%-12s %-17s %4d %12.4f %12.4f %12.4f %8.4f %6.2f  %v\n",
				wl, bd.Name, len(v), q1, percentile(v, 50), q3, s, bd.Bound, s < bd.Bound/3)
		}
		fmt.Fprintf(w, "%-12s %-17s failed %d/%d\n", wl, "operations", failed(all[wl]), attempted(all[wl]))
	}
	return nil
}

func sortedKeys(ms ...map[string][]record) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

func failed(rs []record) (n int) {
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

func attempted(rs []record) (n int) {
	for _, r := range rs {
		n += r.Attempted
	}
	return n
}
