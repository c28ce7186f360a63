package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newDebugTracer builds a tracer with one finished span, one open span,
// metrics, and recorder events — enough for every route to have
// content.
func newDebugTracer() (*Tracer, *Span) {
	tr := NewTracer()
	tr.SetRecorder(NewRecorder(32))
	done := tr.Start("encode")
	done.SetInt("vars", 12)
	done.End()
	open := tr.Start("solve")
	open.SetStr("dest", "10.0.0.0/24")
	tr.Metrics().Counter("solver.decisions").Add(42)
	tr.Metrics().Gauge("solver.trail_depth").Set(9)
	tr.Metrics().Histogram("solver.solve_ms", LatencyBuckets).Observe(3)
	tr.Recorder().Record(EvRestart, 1, 100)
	return tr, open
}

// TestDebugRoutesSmoke hits every route once; it stays in -short mode
// as the CI smoke test for the endpoint.
func TestDebugRoutesSmoke(t *testing.T) {
	tr, open := newDebugTracer()
	defer open.End()
	srv := httptest.NewServer(DebugMux(tr))
	defer srv.Close()

	for _, route := range []string{"/", "/metrics", "/spans", "/recorder", "/debug/pprof/"} {
		resp, err := http.Get(srv.URL + route)
		if err != nil {
			t.Fatalf("GET %s: %v", route, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d:\n%s", route, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Errorf("GET %s returned an empty body", route)
		}
	}
	resp, err := http.Get(srv.URL + "/no-such-route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route = %d, want 404", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

func TestDebugMetricsPayload(t *testing.T) {
	tr, open := newDebugTracer()
	defer open.End()
	srv := httptest.NewServer(DebugMux(tr))
	defer srv.Close()

	var m MetricsJSON
	getJSON(t, srv.URL+"/metrics", &m)
	if m.Counters["solver.decisions"] != 42 {
		t.Errorf("counters = %v", m.Counters)
	}
	if m.Gauges["solver.trail_depth"].Value != 9 {
		t.Errorf("gauges = %v", m.Gauges)
	}
	h := m.Histograms["solver.solve_ms"]
	if h.Count != 1 || h.Sum != 3 {
		t.Errorf("histogram = %+v", h)
	}
	// One observation of 3ms lands in the (2.5,5] bucket; every
	// quantile interpolates inside it.
	for _, q := range []float64{h.P50, h.P95, h.P99} {
		if q <= 2.5 || q > 5 {
			t.Errorf("quantile %v outside the observed bucket", q)
		}
	}
}

func TestDebugSpansIncludesOpen(t *testing.T) {
	tr, open := newDebugTracer()
	srv := httptest.NewServer(DebugMux(tr))
	defer srv.Close()

	var s SpansJSON
	getJSON(t, srv.URL+"/spans", &s)
	var sawDone, sawOpen bool
	for _, ev := range s.Spans {
		switch {
		case ev.Name == "encode" && !ev.Open:
			sawDone = true
		case ev.Name == "solve" && ev.Open:
			sawOpen = true
			if ev.Attrs["dest"] != "10.0.0.0/24" {
				t.Errorf("open span attrs = %v", ev.Attrs)
			}
		}
	}
	if !sawDone || !sawOpen {
		t.Fatalf("spans view: done=%v open=%v (%+v)", sawDone, sawOpen, s.Spans)
	}
	open.End()
	var after SpansJSON // fresh value: omitempty fields must not inherit
	getJSON(t, srv.URL+"/spans", &after)
	for _, ev := range after.Spans {
		if ev.Open {
			t.Errorf("span %q still open after End", ev.Name)
		}
	}
}

func TestDebugRecorderPayload(t *testing.T) {
	tr, open := newDebugTracer()
	defer open.End()
	srv := httptest.NewServer(DebugMux(tr))
	defer srv.Close()

	var r RecorderJSON
	getJSON(t, srv.URL+"/recorder", &r)
	if r.Capacity != 32 || len(r.Events) != 1 || r.Events[0].Kind != "restart" {
		t.Errorf("recorder payload = %+v", r)
	}
}

// TestDebugRecorderAEDTDownload pins the binary download path:
// /recorder?format=aedt serves a decodable AEDT stream carrying the
// same events the JSON payload reports.
func TestDebugRecorderAEDTDownload(t *testing.T) {
	tr, open := newDebugTracer()
	defer open.End()
	srv := httptest.NewServer(DebugMux(tr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/recorder?format=aedt")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /recorder?format=aedt = %d:\n%s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("content type = %q", ct)
	}
	events, err := ReadAEDT(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("download does not decode as AEDT: %v", err)
	}
	if len(events) != 1 || events[0].Type != "recorder" || events[0].Name != "restart" {
		t.Errorf("downloaded events = %+v", events)
	}

	resp, err = http.Get(srv.URL + "/recorder?format=protobuf")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format = %d, want 400", resp.StatusCode)
	}
}

func TestDebugRoutesWithoutRecorder(t *testing.T) {
	tr := NewTracer() // no recorder attached
	srv := httptest.NewServer(DebugMux(tr))
	defer srv.Close()
	var r RecorderJSON
	getJSON(t, srv.URL+"/recorder", &r)
	if r.Capacity != 0 || len(r.Events) != 0 {
		t.Errorf("recorder payload without recorder = %+v", r)
	}
}

func TestServeDebugBindsAndCloses(t *testing.T) {
	tr, open := newDebugTracer()
	defer open.End()
	addr, closeSrv, err := ServeDebug("127.0.0.1:0", tr)
	if err != nil {
		t.Fatal(err)
	}
	var m MetricsJSON
	getJSON(t, fmt.Sprintf("http://%s/metrics", addr), &m)
	if m.Counters["solver.decisions"] != 42 {
		t.Errorf("served metrics = %v", m.Counters)
	}
	if err := closeSrv(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/metrics", addr)); err == nil {
		t.Error("endpoint still serving after close")
	}
}

// TestSpansPayloadIsAnalyzable checks the live payload feeds the same
// Analyze pipeline the offline trace does.
func TestSpansPayloadIsAnalyzable(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("session.solve")
	root.Child("fingerprint").End()
	stuck := root.Child("solve") // left open: a stuck instance
	payload := spansPayload(tr)
	a := Analyze(payload.Spans)
	if len(a.Roots) != 1 || a.Roots[0].Name != "session.solve" {
		t.Fatalf("live roots = %+v", a.Roots)
	}
	names := []string{}
	for _, n := range a.Spans() {
		names = append(names, n.Name)
	}
	if !strings.Contains(strings.Join(names, " "), "solve") {
		t.Errorf("open span missing from live analysis: %v", names)
	}
	stuck.End()
	root.End()
}
