package obs

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"
)

func TestRequestFromEmpty(t *testing.T) {
	if ri, ok := RequestFrom(context.Background()); ok || ri != (RequestInfo{}) {
		t.Fatalf("RequestFrom(empty ctx) = %+v, %v; want zero, false", ri, ok)
	}
	ctx := WithRequest(context.Background(), RequestInfo{ID: "r1", Tenant: "t", Session: "s"})
	ri, ok := RequestFrom(ctx)
	if !ok || ri.ID != "r1" || ri.Tenant != "t" || ri.Session != "s" {
		t.Fatalf("RequestFrom = %+v, %v", ri, ok)
	}
}

// TestStartCtxStampsSubtree pins the tentpole contract: a span started
// under a request context — and every descendant, transitively — carries
// the request_id/tenant/session attributes, while explicit attributes
// with the same keys win over the inherited ones.
func TestStartCtxStampsSubtree(t *testing.T) {
	tr := NewTracer()
	ctx := WithRequest(context.Background(), RequestInfo{ID: "req-1", Tenant: "acme", Session: "s9"})
	root := tr.StartCtx(ctx, "synthesize")
	child := root.Child("destination")
	grand := child.Child("sat.solve")
	grand.End()
	child.SetStr("request_id", "override")
	child.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	for _, name := range []string{"synthesize", "sat.solve"} {
		sp := byName[name]
		if sp.Attrs["request_id"] != "req-1" || sp.Attrs["tenant"] != "acme" || sp.Attrs["session"] != "s9" {
			t.Errorf("span %s attrs = %v, want inherited request identity", name, sp.Attrs)
		}
	}
	if got := byName["destination"].Attrs["request_id"]; got != "override" {
		t.Errorf("explicit request_id attr = %v, want override to win", got)
	}

	// Spans without a request context stay unstamped.
	plain := tr.Start("plain")
	plain.End()
	for _, sp := range tr.Spans() {
		if sp.Name == "plain" && sp.Attrs != nil {
			t.Errorf("plain span attrs = %v, want none", sp.Attrs)
		}
	}
}

// TestStartCtxWithoutRequest: StartCtx on a plain context behaves like
// Start.
func TestStartCtxWithoutRequest(t *testing.T) {
	tr := NewTracer()
	sp := tr.StartCtx(context.Background(), "solo")
	sp.End()
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Attrs != nil {
		t.Fatalf("spans = %+v, want one attr-less span", spans)
	}
}

func TestRecordRequestCarriesID(t *testing.T) {
	r := NewRecorder(8)
	r.RecordRequest(EvSolveStart, "10.0.0.0/24", "req-7", 1, 2)
	r.RecordLabeled(EvSolveEnd, "10.0.0.0/24", 1, 3)
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Req != "req-7" {
		t.Errorf("attributed event Req = %q, want req-7", evs[0].Req)
	}
	if evs[1].Req != "" {
		t.Errorf("unattributed event Req = %q, want empty", evs[1].Req)
	}
}

func TestObserveExemplar(t *testing.T) {
	tr := NewTracer()
	h := tr.Metrics().Histogram("aedd.solve_ms", LatencyBuckets)
	h.Observe(1)             // no exemplar
	h.ObserveExemplar(1, "") // empty ID records no exemplar either
	snap := tr.Metrics().Snapshot().Histograms["aedd.solve_ms"]
	if snap.Exemplars != nil {
		t.Fatalf("exemplars before any ObserveExemplar = %v, want nil", snap.Exemplars)
	}
	h.ObserveExemplar(1, "req-a")
	h.ObserveExemplar(1, "req-b") // same bucket: last writer wins
	h.ObserveExemplar(1e9, "req-slow")
	snap = tr.Metrics().Snapshot().Histograms["aedd.solve_ms"]
	if snap.Exemplars == nil {
		t.Fatal("no exemplars in snapshot")
	}
	if len(snap.Exemplars) != len(snap.Counts) {
		t.Fatalf("exemplars len %d, counts len %d", len(snap.Exemplars), len(snap.Counts))
	}
	var got []string
	for _, e := range snap.Exemplars {
		if e != "" {
			got = append(got, e)
		}
	}
	if !reflect.DeepEqual(got, []string{"req-b", "req-slow"}) {
		t.Errorf("exemplars = %v, want [req-b req-slow]", got)
	}
}

// TestRequestEventsRoundTrip pins the wire contract for the
// attributed kinds: request IDs on spans and recorder events and
// histogram exemplars survive the plain and the gzip JSONL round trip
// intact.
func TestRequestEventsRoundTrip(t *testing.T) {
	tr := NewTracer()
	rec := NewRecorder(8)
	tr.SetRecorder(rec)
	ctx := WithRequest(context.Background(), RequestInfo{ID: "req-rt", Tenant: "t"})
	sp := tr.StartCtx(ctx, "synthesize")
	time.Sleep(time.Millisecond)
	sp.End()
	rec.RecordRequest(EvSolveEnd, "10.0.0.0/24", "req-rt", 1, 5)
	tr.Metrics().Histogram("aedd.solve_ms", LatencyBuckets).ObserveExemplar(2, "req-rt")

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	for name, stream := range map[string][]byte{"jsonl": buf.Bytes(), "gzip": gzipMembers(t, buf.Bytes())} {
		events, err := ReadEvents(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var spanID, recReq string
		var exemplars []string
		for _, ev := range events {
			switch ev.Type {
			case "span":
				if ev.Name == "synthesize" {
					spanID, _ = ev.Attrs["request_id"].(string)
				}
			case "recorder":
				recReq = ev.Req
			case "histogram":
				if ev.Name == "aedd.solve_ms" {
					exemplars = ev.Exemplars
				}
			}
		}
		if spanID != "req-rt" {
			t.Errorf("%s: span request_id = %q", name, spanID)
		}
		if recReq != "req-rt" {
			t.Errorf("%s: recorder event req = %q", name, recReq)
		}
		found := false
		for _, e := range exemplars {
			if e == "req-rt" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: histogram exemplars = %v, missing req-rt", name, exemplars)
		}
	}
}

// TestRequestTracingZeroAlloc extends the disabled-telemetry guarantee
// to the request-tracing API: with a nil tracer/recorder/watchdog, the
// context-aware paths must not allocate either — the nil check happens
// before any context access.
func TestRequestTracingZeroAlloc(t *testing.T) {
	var tr *Tracer
	var rec *Recorder
	var wd *Watchdog
	ctx := WithRequest(context.Background(), RequestInfo{ID: "r", Tenant: "t", Session: "s"})
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.StartCtx(ctx, "synthesize")
		sp.SetStr("dest", "10.0.0.0/24")
		child := sp.Child("solve")
		child.End()
		sp.End()
		rec.RecordRequest(EvSolveStart, "10.0.0.0/24", "r", 0, 0)
		stop := wd.Watch(ctx, "10.0.0.0/24")
		stop()
		tr.Metrics().Histogram("aedd.solve_ms", LatencyBuckets).ObserveExemplar(1.5, "r")
	})
	if allocs != 0 {
		t.Fatalf("disabled request tracing allocated %.1f times per run, want 0", allocs)
	}
}
