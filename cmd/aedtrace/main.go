// Command aedtrace analyzes telemetry traces written by aed
// -trace-out, aedbench -metrics-out, or aed.WriteTrace, and the
// retention segments of -retain: JSONL events, plain or
// gzip-compressed (the gzip magic selects decompression).
//
// Usage:
//
//	aedtrace [-tree] [-phases] [-flame] [-top N] [-metrics] [-recorder] TRACE
//	aedtrace -request ID TRACE
//	aedtrace -diff OLD NEW
//
// With no mode flags aedtrace prints the phase table and the critical
// path (or the recorder event list, for a recorder-only stream).
// Modes:
//
//	-tree      render the reconstructed span tree with durations
//	-phases    per-phase aggregates: count, total, self, max (default)
//	-flame     text flamegraph: bar width proportional to duration
//	-top N     the N slowest individual spans (default 10 with -top)
//	-metrics   dump the counter/gauge/histogram events in the trace
//	           (histograms show their per-bucket request-ID exemplars)
//	-recorder  list the flight-recorder events in the trace
//	-request   filter to one request: print the span tree and critical
//	           path of the spans whose request_id attribute matches ID
//	           (a request's whole subtree inherits the attribute, so
//	           this is the end-to-end trace of exactly that request)
//	-diff      compare two traces' per-phase totals (new - old)
//
// A truncated, corrupt, or mixed plain/gzip input fails loudly with a
// non-zero exit instead of yielding a silent partial analysis. A
// retention segment still being written reads up to its last flush;
// `gzip -dc` turns a segment back into plain JSONL.
//
// Phase totals here match the per-span durations WriteTraceSummary
// prints (aggregated by span name), so the two views can be
// cross-checked (see docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/aed-net/aed/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main's testable body; it returns the process exit code.
func run(argv []string) int {
	fs := flag.NewFlagSet("aedtrace", flag.ExitOnError)
	var (
		tree     = fs.Bool("tree", false, "print the reconstructed span tree")
		phases   = fs.Bool("phases", false, "print per-phase aggregate timings")
		flame    = fs.Bool("flame", false, "print a text flamegraph")
		top      = fs.Int("top", 0, "print the N slowest individual spans")
		metrics  = fs.Bool("metrics", false, "print the trace's metric events")
		recorder = fs.Bool("recorder", false, "print the trace's flight-recorder events")
		request  = fs.String("request", "", "filter to one request ID: print its span tree and critical path")
		diff     = fs.Bool("diff", false, "compare two traces' per-phase totals (OLD NEW)")
	)
	fs.Parse(argv)

	if *diff {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "aedtrace: -diff needs exactly two traces: OLD NEW")
			return 2
		}
		oldA, err := load(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		newA, err := load(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		printDiff(oldA, newA)
		return 0
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	events, err := loadEvents(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	if *request != "" {
		filtered := filterRequest(events, *request)
		if len(filtered) == 0 {
			fmt.Fprintf(os.Stderr, "aedtrace: no spans with request_id %q in this trace\n", *request)
			return 1
		}
		a := obs.Analyze(filtered)
		fmt.Printf("request %s (%d spans):\n\n", *request, len(filtered))
		printTree(a)
		fmt.Println()
		printCriticalPath(a)
		return 0
	}
	a := obs.Analyze(events)

	// Default view: phases + critical path — or the recorder event list
	// when the stream holds recorder events and no spans at all.
	if !*tree && !*phases && !*flame && *top == 0 && !*metrics && !*recorder {
		if len(a.Roots) == 0 && len(recorderEvents(a)) > 0 {
			*recorder = true
		} else {
			*phases = true
			printCriticalPath(a)
			fmt.Println()
		}
	}
	first := true
	section := func() {
		if !first {
			fmt.Println()
		}
		first = false
	}
	if *tree {
		section()
		printTree(a)
	}
	if *phases {
		section()
		printPhases(a)
	}
	if *flame {
		section()
		printFlame(a)
	}
	if *top > 0 {
		section()
		printSlowest(a, *top)
	}
	if *metrics {
		section()
		printMetrics(a)
	}
	if *recorder {
		section()
		printRecorder(a)
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "aedtrace:", err)
	return 1
}

// loadEvents reads a plain or gzip JSONL trace (obs.ReadEvents). The
// decoder is strict: torn gzip members, checksum mismatches, binary
// garbage in a plain file, or text after a gzip member all surface as
// errors.
func loadEvents(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return events, nil
}

// filterRequest keeps the span events attributed to one request ID.
// Every span started under a request context carries the request_id
// attribute (children inherit it), so the filter yields the request's
// complete span subtree — identically from a plain or a gzip stream.
func filterRequest(events []obs.Event, id string) []obs.Event {
	var out []obs.Event
	for _, ev := range events {
		if ev.Type == "span" && ev.Attrs["request_id"] == id {
			out = append(out, ev)
		}
	}
	return out
}

func load(path string) (*obs.Analysis, error) {
	events, err := loadEvents(path)
	if err != nil {
		return nil, err
	}
	return obs.Analyze(events), nil
}

// ms renders a microsecond quantity as milliseconds.
func ms(us int64) string { return fmt.Sprintf("%.3fms", float64(us)/1000) }

func printTree(a *obs.Analysis) {
	fmt.Println("span tree:")
	var walk func(n *obs.SpanNode, depth int)
	walk = func(n *obs.SpanNode, depth int) {
		open := ""
		if n.Open {
			open = "  (open)"
		}
		fmt.Printf("  %s%-*s %12s%s%s\n", strings.Repeat("  ", depth),
			36-2*depth, n.Name, ms(n.DurUS), attrSuffix(n.Attrs), open)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range a.Roots {
		walk(r, 0)
	}
}

func attrSuffix(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, attrs[k]))
	}
	return "  {" + strings.Join(parts, " ") + "}"
}

func printPhases(a *obs.Analysis) {
	fmt.Println("phases (by total time):")
	fmt.Printf("  %-32s %6s %14s %14s %14s\n", "phase", "count", "total", "self", "max")
	for _, p := range a.Phases() {
		fmt.Printf("  %-32s %6d %14s %14s %14s\n",
			p.Name, p.Count, ms(p.TotalUS), ms(p.SelfUS), ms(p.MaxUS))
	}
}

func printCriticalPath(a *obs.Analysis) {
	path := a.CriticalPath()
	if len(path) == 0 {
		fmt.Println("critical path: (empty trace)")
		return
	}
	fmt.Println("critical path:")
	for i, n := range path {
		fmt.Printf("  %s%s %s\n", strings.Repeat("  ", i), n.Name, ms(n.DurUS))
	}
}

// printFlame renders a text flamegraph: each span is one row, indented
// by depth, with a bar proportional to its share of the widest root.
func printFlame(a *obs.Analysis) {
	const width = 60
	var max int64
	for _, r := range a.Roots {
		if r.DurUS > max {
			max = r.DurUS
		}
	}
	if max == 0 {
		max = 1
	}
	fmt.Println("flamegraph (bar ∝ duration):")
	var walk func(n *obs.SpanNode, depth int)
	walk = func(n *obs.SpanNode, depth int) {
		bar := int(n.DurUS * width / max)
		if bar == 0 && n.DurUS > 0 {
			bar = 1
		}
		fmt.Printf("  %-28s %12s |%s\n",
			strings.Repeat(" ", depth)+n.Name, ms(n.DurUS), strings.Repeat("█", bar))
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range a.Roots {
		walk(r, 0)
	}
}

func printSlowest(a *obs.Analysis, n int) {
	fmt.Printf("slowest %d spans:\n", n)
	fmt.Printf("  %-32s %14s %14s\n", "span", "start", "duration")
	for _, sp := range a.Slowest(n) {
		fmt.Printf("  %-32s %14s %14s%s\n", sp.Name, ms(sp.StartUS), ms(sp.DurUS), attrSuffix(sp.Attrs))
	}
}

func printMetrics(a *obs.Analysis) {
	fmt.Println("metrics:")
	recorders := 0
	for _, ev := range a.Metrics {
		switch ev.Type {
		case "counter":
			fmt.Printf("  counter   %-32s %d\n", ev.Name, ev.Value)
		case "gauge":
			fmt.Printf("  gauge     %-32s %d (max %d)\n", ev.Name, ev.Value, ev.Max)
		case "histogram":
			fmt.Printf("  histogram %-32s n=%d sum=%.3f%s\n", ev.Name, ev.Count, ev.Sum, exemplarSuffix(ev.Exemplars))
		case "recorder":
			recorders++
		}
	}
	if recorders > 0 {
		fmt.Printf("  recorder  %-32s %d (see -recorder)\n", "events", recorders)
	}
}

// exemplarSuffix renders a histogram's per-bucket request-ID exemplars
// (deduplicated, bucket order) for the -metrics view.
func exemplarSuffix(exemplars []string) string {
	var ids []string
	seen := make(map[string]bool)
	for _, e := range exemplars {
		if e != "" && !seen[e] {
			seen[e] = true
			ids = append(ids, e)
		}
	}
	if len(ids) == 0 {
		return ""
	}
	return " exemplars=[" + strings.Join(ids, " ") + "]"
}

// recorderEvents filters the flight-recorder events out of the
// non-span event list.
func recorderEvents(a *obs.Analysis) []obs.Event {
	var out []obs.Event
	for _, ev := range a.Metrics {
		if ev.Type == "recorder" {
			out = append(out, ev)
		}
	}
	return out
}

// printRecorder lists the flight-recorder events, oldest first, with
// inter-event gaps (the view that shows what the solver was doing
// right before an incident).
func printRecorder(a *obs.Analysis) {
	events := recorderEvents(a)
	if len(events) == 0 {
		fmt.Println("recorder: (no flight-recorder events in this trace)")
		return
	}
	fmt.Printf("recorder events (%d):\n", len(events))
	fmt.Printf("  %8s %12s %-18s %12s %12s  %s\n", "seq", "+time", "kind", "a", "b", "label")
	base := events[0].TimeUS
	for _, ev := range events {
		fmt.Printf("  %8d %12s %-18s %12d %12d  %s\n",
			ev.Seq, ms(ev.TimeUS-base), ev.Name, ev.A, ev.B, ev.Label)
	}
}

// printDiff compares per-phase totals: new minus old, sorted by the
// absolute change. Phases present in only one trace show as added or
// removed.
func printDiff(oldA, newA *obs.Analysis) {
	oldP := make(map[string]obs.PhaseStat)
	for _, p := range oldA.Phases() {
		oldP[p.Name] = p
	}
	newP := make(map[string]obs.PhaseStat)
	for _, p := range newA.Phases() {
		newP[p.Name] = p
	}
	names := make(map[string]bool)
	for n := range oldP {
		names[n] = true
	}
	for n := range newP {
		names[n] = true
	}
	type row struct {
		name              string
		oldUS, newUS, dUS int64
		oldN, newN        int
	}
	var rows []row
	for n := range names {
		o, nw := oldP[n], newP[n]
		rows = append(rows, row{n, o.TotalUS, nw.TotalUS, nw.TotalUS - o.TotalUS, o.Count, nw.Count})
	}
	sort.Slice(rows, func(i, j int) bool {
		di, dj := rows[i].dUS, rows[j].dUS
		if di < 0 {
			di = -di
		}
		if dj < 0 {
			dj = -dj
		}
		if di != dj {
			return di > dj
		}
		return rows[i].name < rows[j].name
	})
	fmt.Println("phase diff (new - old, by |change|):")
	fmt.Printf("  %-32s %14s %14s %14s %9s\n", "phase", "old", "new", "change", "count")
	for _, r := range rows {
		sign := ""
		if r.dUS > 0 {
			sign = "+"
		}
		fmt.Printf("  %-32s %14s %14s %13s%s %4d→%-4d\n",
			r.name, ms(r.oldUS), ms(r.newUS), sign, ms(r.dUS), r.oldN, r.newN)
	}
}
