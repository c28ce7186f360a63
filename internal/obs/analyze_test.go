package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// tracedRun builds a small realistic trace: one synthesize root with
// two solve children (one nested extract), plus metrics.
func tracedRun() *Tracer {
	tr := NewTracer()
	root := tr.Start("synthesize")
	s1 := root.Child("solve")
	s1.Child("extract").End()
	s1.End()
	root.Child("solve").End()
	root.End()
	tr.Metrics().Counter("solver.conflicts").Add(12)
	return tr
}

func TestAnalyzeRebuildsTree(t *testing.T) {
	tr := tracedRun()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(events)
	if len(a.Roots) != 1 || a.Roots[0].Name != "synthesize" {
		t.Fatalf("roots = %+v", a.Roots)
	}
	root := a.Roots[0]
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(root.Children))
	}
	for _, c := range root.Children {
		if c.Name != "solve" {
			t.Errorf("child %q, want solve", c.Name)
		}
	}
	if len(root.Children[0].Children) != 1 || root.Children[0].Children[0].Name != "extract" {
		t.Errorf("first solve should own the extract span: %+v", root.Children[0].Children)
	}
	if len(a.Metrics) != 1 || a.Metrics[0].Name != "solver.conflicts" {
		t.Errorf("metrics = %+v", a.Metrics)
	}
	if got := len(a.Spans()); got != 4 {
		t.Errorf("walked %d spans, want 4", got)
	}
}

// TestPhasesMatchTraceDurations is the aedtrace/WriteTraceSummary
// consistency guarantee: per-phase totals equal the per-span durations
// the summary prints, summed by name, within µs rounding.
func TestPhasesMatchTraceDurations(t *testing.T) {
	tr := tracedRun()
	wantTotal := make(map[string]int64)
	wantCount := make(map[string]int)
	for _, sp := range tr.Spans() {
		wantTotal[sp.Name] += sp.Duration.Microseconds()
		wantCount[sp.Name]++
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	phases := Analyze(events).Phases()
	if len(phases) != len(wantTotal) {
		t.Fatalf("got %d phases, want %d", len(phases), len(wantTotal))
	}
	for _, p := range phases {
		if p.TotalUS != wantTotal[p.Name] {
			t.Errorf("phase %s total = %dµs, want %dµs", p.Name, p.TotalUS, wantTotal[p.Name])
		}
		if p.Count != wantCount[p.Name] {
			t.Errorf("phase %s count = %d, want %d", p.Name, p.Count, wantCount[p.Name])
		}
		if p.SelfUS < 0 || p.SelfUS > p.TotalUS {
			t.Errorf("phase %s self = %dµs out of range (total %dµs)", p.Name, p.SelfUS, p.TotalUS)
		}
		if p.MaxUS > p.TotalUS {
			t.Errorf("phase %s max %dµs > total %dµs", p.Name, p.MaxUS, p.TotalUS)
		}
	}
}

func TestPhaseSelfSubtractsChildren(t *testing.T) {
	events := []Event{
		{Type: "span", ID: 1, Name: "root", StartUS: 0, DurUS: 100},
		{Type: "span", ID: 2, Parent: 1, Name: "child", StartUS: 10, DurUS: 30},
		{Type: "span", ID: 3, Parent: 1, Name: "child", StartUS: 50, DurUS: 40},
	}
	phases := Analyze(events).Phases()
	byName := make(map[string]PhaseStat)
	for _, p := range phases {
		byName[p.Name] = p
	}
	if r := byName["root"]; r.SelfUS != 30 { // 100 - 30 - 40
		t.Errorf("root self = %d, want 30", r.SelfUS)
	}
	if c := byName["child"]; c.TotalUS != 70 || c.MaxUS != 40 || c.Count != 2 {
		t.Errorf("child stat = %+v", c)
	}
	// Sorted by total descending: root first.
	if phases[0].Name != "root" {
		t.Errorf("phase order = %v", phases)
	}
}

func TestSlowestAndCriticalPath(t *testing.T) {
	events := []Event{
		{Type: "span", ID: 1, Name: "root", StartUS: 0, DurUS: 100},
		{Type: "span", ID: 2, Parent: 1, Name: "fast", StartUS: 0, DurUS: 5},
		{Type: "span", ID: 3, Parent: 1, Name: "slow", StartUS: 5, DurUS: 90},
		{Type: "span", ID: 4, Parent: 3, Name: "inner", StartUS: 6, DurUS: 80},
	}
	a := Analyze(events)
	top := a.Slowest(2)
	if len(top) != 2 || top[0].Name != "root" || top[1].Name != "slow" {
		t.Errorf("slowest = %v, %v", top[0].Name, top[1].Name)
	}
	var path []string
	for _, n := range a.CriticalPath() {
		path = append(path, n.Name)
	}
	want := []string{"root", "slow", "inner"}
	if len(path) != len(want) {
		t.Fatalf("critical path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("critical path = %v, want %v", path, want)
		}
	}
}

func TestAnalyzeOrphanParentBecomesRoot(t *testing.T) {
	events := []Event{
		{Type: "span", ID: 5, Parent: 99, Name: "orphan", StartUS: 0, DurUS: 10},
	}
	a := Analyze(events)
	if len(a.Roots) != 1 || a.Roots[0].Name != "orphan" {
		t.Errorf("orphan not promoted to root: %+v", a.Roots)
	}
}

// TestAnalyzeOutOfOrderEnds feeds spans in the order a real trace
// lists them — children before parents, ends interleaved arbitrarily —
// and requires the same tree as the sorted stream.
func TestAnalyzeOutOfOrderEnds(t *testing.T) {
	// root(1) > a(2) > inner(4); root > b(3). Stream order scrambles
	// every relationship: grandchild first, root in the middle.
	events := []Event{
		{Type: "span", ID: 4, Parent: 2, Name: "inner", StartUS: 12, DurUS: 5},
		{Type: "span", ID: 3, Parent: 1, Name: "b", StartUS: 40, DurUS: 20},
		{Type: "span", ID: 1, Name: "root", StartUS: 0, DurUS: 100},
		{Type: "span", ID: 2, Parent: 1, Name: "a", StartUS: 10, DurUS: 25},
	}
	for range events {
		a := Analyze(events)
		if len(a.Roots) != 1 || a.Roots[0].Name != "root" {
			t.Fatalf("roots = %+v", a.Roots)
		}
		kids := a.Roots[0].Children
		if len(kids) != 2 || kids[0].Name != "a" || kids[1].Name != "b" {
			t.Fatalf("children not sorted by start: %+v", kids)
		}
		if len(kids[0].Children) != 1 || kids[0].Children[0].Name != "inner" {
			t.Fatalf("grandchild lost: %+v", kids[0].Children)
		}
		// Rotate and re-analyze: every arrival order must agree.
		events = append(events[1:], events[0])
	}
}

// TestAnalyzeOverlappingSiblings pins self-time clamping: siblings
// whose durations sum past the parent (parallel workers, clock skew)
// must clamp the parent's self time to zero, never negative.
func TestAnalyzeOverlappingSiblings(t *testing.T) {
	events := []Event{
		{Type: "span", ID: 1, Name: "solve", StartUS: 0, DurUS: 100},
		{Type: "span", ID: 2, Parent: 1, Name: "worker", StartUS: 0, DurUS: 70},
		{Type: "span", ID: 3, Parent: 1, Name: "worker", StartUS: 5, DurUS: 70},
	}
	phases := Analyze(events).Phases()
	byName := make(map[string]PhaseStat)
	for _, p := range phases {
		byName[p.Name] = p
	}
	if s := byName["solve"]; s.SelfUS != 0 {
		t.Errorf("overlapping children must clamp self to 0, got %d", s.SelfUS)
	}
	if w := byName["worker"]; w.TotalUS != 140 || w.Count != 2 {
		t.Errorf("worker stat = %+v", w)
	}
}

// TestAnalyzeMissingParents covers a truncated trace: a subtree whose
// interior span was cut. The stranded spans become roots (never
// dropped) and the phase totals still count every span.
func TestAnalyzeMissingParents(t *testing.T) {
	events := []Event{
		{Type: "span", ID: 1, Name: "root", StartUS: 0, DurUS: 100},
		{Type: "span", ID: 2, Parent: 1, Name: "kept", StartUS: 5, DurUS: 20},
		// ID 3 ("lost") was truncated away; its children survive.
		{Type: "span", ID: 4, Parent: 3, Name: "stranded", StartUS: 30, DurUS: 10},
		{Type: "span", ID: 5, Parent: 3, Name: "stranded", StartUS: 45, DurUS: 12},
	}
	a := Analyze(events)
	if len(a.Roots) != 3 {
		t.Fatalf("roots = %d, want 3 (root + 2 stranded)", len(a.Roots))
	}
	if got := len(a.Spans()); got != 4 {
		t.Errorf("Spans() walked %d, want 4", got)
	}
	var total int
	for _, p := range a.Phases() {
		total += p.Count
	}
	if total != 4 {
		t.Errorf("phase counts sum to %d, want 4", total)
	}
}

// TestAnalyzeSelfParent pins the cycle guard: a span claiming itself
// as parent must become a root, not an infinite walk.
func TestAnalyzeSelfParent(t *testing.T) {
	events := []Event{
		{Type: "span", ID: 7, Parent: 7, Name: "ouroboros", StartUS: 0, DurUS: 10},
	}
	a := Analyze(events)
	if len(a.Roots) != 1 || a.Roots[0].Name != "ouroboros" {
		t.Fatalf("self-parent span not promoted to root: %+v", a.Roots)
	}
	if len(a.Roots[0].Children) != 0 {
		t.Error("self-parent span must not be its own child")
	}
	if got := len(a.Spans()); got != 1 {
		t.Errorf("Spans() walked %d, want 1", got)
	}
}

// TestAnalyzePhasesIdenticalAcrossFormats is the obs-level twin of the
// aedtrace acceptance pin: one tracer exported as plain JSONL and as
// gzip-compressed JSONL must analyze to deep-equal phase tables and
// identical tree shapes.
func TestAnalyzePhasesIdenticalAcrossFormats(t *testing.T) {
	tr := tracedRun()
	var jbuf bytes.Buffer
	if err := WriteJSONL(&jbuf, tr); err != nil {
		t.Fatal(err)
	}
	zipped := gzipMembers(t, jbuf.Bytes())
	jEvents, err := ReadEvents(&jbuf)
	if err != nil {
		t.Fatal(err)
	}
	aEvents, err := ReadEvents(bytes.NewReader(zipped))
	if err != nil {
		t.Fatal(err)
	}
	ja, aa := Analyze(jEvents), Analyze(aEvents)
	if !reflect.DeepEqual(ja.Phases(), aa.Phases()) {
		t.Errorf("phase tables differ:\njsonl: %+v\ngzip:  %+v", ja.Phases(), aa.Phases())
	}
	shape := func(a *Analysis) []string {
		var out []string
		var walk func(n *SpanNode, depth int)
		walk = func(n *SpanNode, depth int) {
			out = append(out, fmt.Sprintf("%d:%s:%d", depth, n.Name, n.DurUS))
			for _, c := range n.Children {
				walk(c, depth+1)
			}
		}
		for _, r := range a.Roots {
			walk(r, 0)
		}
		return out
	}
	if !reflect.DeepEqual(shape(ja), shape(aa)) {
		t.Errorf("tree shapes differ:\njsonl: %v\ngzip:  %v", shape(ja), shape(aa))
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil)
	if len(a.Roots) != 0 || len(a.Spans()) != 0 || len(a.Phases()) != 0 || len(a.CriticalPath()) != 0 {
		t.Error("empty trace must analyze to empty everything")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	// 4 observations in (1,2], 4 in (2,4]: p50 at the (1,2]/(2,4]
	// boundary, p100 at the top of (2,4].
	for _, v := range []float64{1.5, 1.5, 1.5, 1.5, 3, 3, 3, 3} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := s.Quantile(1); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := s.Quantile(0.25); got != 1.5 {
		t.Errorf("p25 = %v, want 1.5 (midpoint of first occupied bucket)", got)
	}
	if got := s.Quantile(0.75); got != 3 {
		t.Errorf("p75 = %v, want 3", got)
	}
	// First-bucket interpolation starts from 0.
	h2 := newHistogram([]float64{10})
	h2.Observe(5)
	h2.Observe(5)
	if got := h2.Snapshot().Quantile(0.5); got != 5 {
		t.Errorf("first-bucket p50 = %v, want 5", got)
	}
	// Overflow bucket clamps to the largest finite bound.
	h3 := newHistogram([]float64{1, 10})
	h3.Observe(1e6)
	if got := h3.Snapshot().Quantile(0.99); got != 10 {
		t.Errorf("overflow quantile = %v, want 10", got)
	}
	// Empty histogram and clamped q.
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Error("empty quantile must be 0")
	}
	if got := h3.Snapshot().Quantile(-1); got != 10 {
		t.Errorf("q<0 clamps to min, got %v", got)
	}
}

func TestWriteSummaryQuantiles(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 100; i++ {
		tr.Metrics().Histogram("solve_ms", LatencyBuckets).Observe(float64(i % 20))
	}
	var buf bytes.Buffer
	WriteSummary(&buf, tr)
	out := buf.String()
	for _, want := range []string{"p50=", "p95=", "p99=", "n=100"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestOpenSpansSnapshot(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("solve")
	sp.SetStr("dest", "10.0.0.0/24")
	time.Sleep(time.Millisecond)
	open := tr.OpenSpans()
	if len(open) != 1 {
		t.Fatalf("open spans = %d, want 1", len(open))
	}
	o := open[0]
	if !o.Open || o.Name != "solve" || o.Duration <= 0 || o.Attrs["dest"] != "10.0.0.0/24" {
		t.Errorf("open snapshot = %+v", o)
	}
	sp.End()
	if len(tr.OpenSpans()) != 0 {
		t.Error("span still open after End")
	}
	if rec := tr.Spans()[0]; rec.Open {
		t.Error("finished record must not be marked open")
	}
}

func TestSetAttrAfterEndRejected(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("solve")
	sp.SetInt("before", 1)
	sp.End()
	sp.SetInt("after", 2)
	sp.SetStr("after_s", "x")
	rec := tr.Spans()[0]
	if _, ok := rec.Attrs["before"]; !ok {
		t.Error("pre-End attribute lost")
	}
	if _, ok := rec.Attrs["after"]; ok {
		t.Error("post-End attribute must be rejected")
	}
	if _, ok := rec.Attrs["after_s"]; ok {
		t.Error("post-End attribute must be rejected")
	}
}
