package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/aed-net/aed/internal/obs"
)

// captureRun invokes run with stdout captured, returning the exit code
// and what was printed.
func captureRun(t *testing.T, args ...string) (int, string) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := run(args)
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	r.Close()
	return code, string(out)
}

// testTracer records a span tree, metrics and two flight-recorder
// events.
func testTracer() *obs.Tracer {
	tr := obs.NewTracer()
	rec := obs.NewRecorder(16)
	tr.SetRecorder(rec)
	root := tr.Start("synthesize")
	root.SetInt("destinations", 3)
	root.SetStr("policy", "reachability")
	enc := root.Child("encode")
	enc.SetBool("incremental", true)
	enc.End()
	solve := root.Child("solve")
	solve.SetDur("budget", 250*time.Millisecond)
	solve.End()
	root.End()
	rec.RecordLabeled(obs.EvCacheMiss, "10.9.0.0/16", 1, 2)
	rec.Record(obs.EvSolveEnd, 1, 12)
	tr.Metrics().Counter("solver.conflicts").Add(17)
	tr.Metrics().Gauge("solver.trail").Set(5)
	tr.Metrics().Histogram("solve.ms", []float64{1, 10}).Observe(2)
	return tr
}

// writeJSONL writes tr as a plain JSONL trace to dir/trace.jsonl.
func writeJSONL(t *testing.T, dir string, tr *obs.Tracer) string {
	t.Helper()
	path := filepath.Join(dir, "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// spillSegment spills tr's spans and recorder events through a manual
// retention ring under dir and returns the ring, flushed but still
// open, with the path of its one segment.
func spillSegment(t *testing.T, tr *obs.Tracer, dir string) (*obs.Retention, string) {
	t.Helper()
	ret, err := obs.NewRetention(tr, obs.RetentionOptions{Dir: filepath.Join(dir, "retain"), FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ret.Close() })
	if err := ret.Flush(); err != nil {
		t.Fatal(err)
	}
	segs := ret.Segments()
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want one", segs)
	}
	return ret, segs[0]
}

// gzipFile writes a gzip-compressed copy of path (what `gzip -k` makes)
// and returns its name.
func gzipFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(data)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	out := path + ".gz"
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameOutput fails t unless aedtrace prints the same, with exit 0,
// for each view over both inputs.
func sameOutput(t *testing.T, a, b string, views ...[]string) {
	t.Helper()
	for _, view := range views {
		codeA, outA := captureRun(t, append(view, a)...)
		codeB, outB := captureRun(t, append(view, b)...)
		if codeA != 0 || codeB != 0 {
			t.Fatalf("%v exits: %s %d, %s %d", view, filepath.Base(a), codeA, filepath.Base(b), codeB)
		}
		if outA != outB {
			t.Errorf("%v output differs:\n--- %s ---\n%s--- %s ---\n%s",
				view, filepath.Base(a), outA, filepath.Base(b), outB)
		}
	}
}

// TestPhasesIdenticalAcrossFormats is the acceptance pin: a plain JSONL
// trace and the retention segment spilled from the same tracer print
// byte-identical span views, while the segment is still open and
// again after Close; the metrics view reads the same from a gzip copy
// of the trace (retention spills no metrics).
func TestPhasesIdenticalAcrossFormats(t *testing.T) {
	dir := t.TempDir()
	tr := testTracer()
	jsonl := writeJSONL(t, dir, tr)
	ret, seg := spillSegment(t, tr, dir)

	spanViews := [][]string{{"-phases"}, {"-tree"}, {"-flame"}, {"-recorder"}}
	sameOutput(t, jsonl, seg, spanViews...)
	if err := ret.Close(); err != nil {
		t.Fatal(err)
	}
	sameOutput(t, jsonl, seg, spanViews...)
	sameOutput(t, jsonl, gzipFile(t, jsonl), []string{"-metrics"})

	_, out := captureRun(t, "-phases", seg)
	if !strings.Contains(out, "synthesize") || !strings.Contains(out, "solve") {
		t.Errorf("-phases output missing phases:\n%s", out)
	}
}

// closedSegment spills testTracer through a closed retention ring and
// returns the segment's bytes with the plain trace's path.
func closedSegment(t *testing.T, dir string) ([]byte, string) {
	t.Helper()
	tr := testTracer()
	jsonl := writeJSONL(t, dir, tr)
	ret, seg := spillSegment(t, tr, dir)
	if err := ret.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	return data, jsonl
}

func TestTruncatedGzipFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	data, _ := closedSegment(t, dir)
	cut := filepath.Join(dir, "cut.jsonl.gz")
	if err := os.WriteFile(cut, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := captureRun(t, "-phases", cut); code == 0 {
		t.Error("a torn gzip member must exit non-zero")
	}
}

func TestCorruptGzipFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	data, _ := closedSegment(t, dir)
	data[len(data)-8] ^= 0x55 // the member's CRC-32 trailer
	bad := filepath.Join(dir, "bad.jsonl.gz")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := captureRun(t, "-phases", bad); code == 0 {
		t.Error("checksum-corrupt gzip input must exit non-zero")
	}
}

func TestMixedFormatFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	segData, jsonl := closedSegment(t, dir)
	jsonData, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}

	// JSONL with gzip bytes appended: the JSONL parser must reject the
	// binary tail rather than silently stopping at it.
	mixed1 := filepath.Join(dir, "mixed1.jsonl")
	if err := os.WriteFile(mixed1, append(append([]byte{}, jsonData...), segData...), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := captureRun(t, "-phases", mixed1); code == 0 {
		t.Error("JSONL+gzip concatenation must exit non-zero")
	}

	// A gzip member with JSONL appended: the multistream reader must
	// reject the text tail as a bad member header.
	mixed2 := filepath.Join(dir, "mixed2.jsonl.gz")
	if err := os.WriteFile(mixed2, append(append([]byte{}, segData...), jsonData...), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := captureRun(t, "-phases", mixed2); code == 0 {
		t.Error("gzip+JSONL concatenation must exit non-zero")
	}
}

func TestMissingFileFails(t *testing.T) {
	if code, _ := captureRun(t, "-phases", filepath.Join(t.TempDir(), "nope.jsonl")); code == 0 {
		t.Error("missing input must exit non-zero")
	}
}

// TestRecorderView pins the flight-recorder view and its selection as
// the default for recorder-only streams.
func TestRecorderView(t *testing.T) {
	dir := t.TempDir()
	rec := obs.NewRecorder(16)
	rec.RecordLabeled(obs.EvCacheMiss, "10.9.0.0/16", 1, 2)
	rec.Record(obs.EvSolveEnd, 1, 12)
	path := filepath.Join(dir, "rec.jsonl")
	var buf bytes.Buffer
	if err := obs.WriteRecorderJSONL(&buf, rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	code, out := captureRun(t, "-recorder", path)
	if code != 0 {
		t.Fatalf("-recorder exited %d", code)
	}
	if !strings.Contains(out, "cache_miss") || !strings.Contains(out, "10.9.0.0/16") ||
		!strings.Contains(out, "solve_end") {
		t.Errorf("-recorder view missing events:\n%s", out)
	}

	// No mode flags on a recorder-only stream: default to the same view.
	code, def := captureRun(t, path)
	if code != 0 {
		t.Fatalf("default view exited %d", code)
	}
	if !strings.Contains(def, "recorder events") {
		t.Errorf("default view for a recorder-only stream:\n%s", def)
	}

	// -metrics summarizes the recorder events with a pointer.
	_, met := captureRun(t, "-metrics", path)
	if !strings.Contains(met, "see -recorder") {
		t.Errorf("-metrics missing recorder summary:\n%s", met)
	}
}

func TestDiffAcrossFormats(t *testing.T) {
	dir := t.TempDir()
	tr := testTracer()
	jsonl := writeJSONL(t, dir, tr)
	_, seg := spillSegment(t, tr, dir)
	code, out := captureRun(t, "-diff", jsonl, seg)
	if code != 0 {
		t.Fatalf("-diff exited %d", code)
	}
	// A trace diffed against its own retention segment must show zero
	// change.
	if strings.Contains(out, "+0.001ms") || !strings.Contains(out, "phase diff") {
		t.Errorf("-diff output:\n%s", out)
	}
}

// requestTracer records two requests' span trees plus an attributed
// recorder event and a histogram exemplar.
func requestTracer() *obs.Tracer {
	tr := obs.NewTracer()
	rec := obs.NewRecorder(16)
	tr.SetRecorder(rec)
	ctxA := obs.WithRequest(context.Background(), obs.RequestInfo{ID: "req-a", Tenant: "acme", Session: "s1"})
	rootA := tr.StartCtx(ctxA, "session.solve")
	enc := rootA.Child("encode")
	enc.End()
	sat := rootA.Child("sat.solve")
	sat.End()
	rootA.End()
	ctxB := obs.WithRequest(context.Background(), obs.RequestInfo{ID: "req-b", Tenant: "globex"})
	rootB := tr.StartCtx(ctxB, "session.solve")
	rootB.End()
	rec.RecordRequest(obs.EvSolveEnd, "10.0.0.0/24", "req-a", 1, 7)
	tr.Metrics().Histogram("aedd.solve_ms", obs.LatencyBuckets).ObserveExemplar(3, "req-a")
	return tr
}

// TestRequestViewIdenticalAcrossFormats is the acceptance pin for
// per-request trace views: -request filters a trace to exactly one
// request's span tree, and the output is byte-identical whether the
// stream is the plain JSONL trace or the retention segment spilled from
// the same tracer.
func TestRequestViewIdenticalAcrossFormats(t *testing.T) {
	dir := t.TempDir()
	tr := requestTracer()
	jsonl := writeJSONL(t, dir, tr)
	_, seg := spillSegment(t, tr, dir)

	sameOutput(t, jsonl, seg, []string{"-request", "req-a"}, []string{"-recorder"})
	_, out := captureRun(t, "-request", "req-a", seg)
	for _, want := range []string{"req-a", "session.solve", "sat.solve", "critical path"} {
		if !strings.Contains(out, want) {
			t.Errorf("-request output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "req-b") {
		t.Errorf("-request req-a output leaks another request's spans:\n%s", out)
	}

	// -metrics surfaces the exemplar identically from a gzip copy.
	sameOutput(t, jsonl, gzipFile(t, jsonl), []string{"-metrics"})
	if _, met := captureRun(t, "-metrics", jsonl); !strings.Contains(met, "exemplars=[req-a]") {
		t.Errorf("-metrics missing exemplar annotation:\n%s", met)
	}

	// An ID absent from the trace is a loud failure, not empty output.
	if code, _ := captureRun(t, "-request", "req-nope", seg); code == 0 {
		t.Error("-request with an unknown ID must exit non-zero")
	}
}
