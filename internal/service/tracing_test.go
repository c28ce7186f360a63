package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aed-net/aed/internal/api"
	"github.com/aed-net/aed/internal/obs"
)

// syncBuffer is an access-log sink the test can read while handlers
// are still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestTracingEndToEnd drives one identified request through the
// full service stack and asserts the same request ID shows up on every
// telemetry surface: the response header echo, the /v1/requests
// in-flight view, the access log, the span tree, the flight recorder,
// and the latency histogram exemplars.
func TestRequestTracingEndToEnd(t *testing.T) {
	f := newFixture(3, 1)
	slow := newFixture(8, 2)
	tr := obs.NewTracer()
	rec := obs.NewRecorder(1024)
	tr.SetRecorder(rec)
	var access syncBuffer
	svc, cl := start(t, Config{Workers: 1, QueueDepth: 4, Tracer: tr, AccessLog: &access})
	const reqID = "req-e2e-0001"

	// Pin the single worker with a slow occupier so the traced request
	// sits observably queued behind it.
	occupied := make(chan error, 1)
	go func() {
		_, err := cl.Do(context.Background(), slow.slowRequest())
		occupied <- err
	}()
	m := svc.Tracer().Metrics()
	deadline := time.Now().Add(10 * time.Second)
	for m.Counter("aedd.admitted").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("occupier was never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// The ID and tenant ride the headers (not the body), pinning the
	// header-over-body precedence half of the wire contract too.
	body, err := json.Marshal(f.request("", "sess-trace"))
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, cl.Base+api.PathSolve, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(api.HeaderRequestID, reqID)
	hreq.Header.Set(api.HeaderTenant, "acme")
	type solveResult struct {
		res *http.Response
		err error
	}
	solved := make(chan solveResult, 1)
	go func() {
		res, err := http.DefaultClient.Do(hreq)
		solved <- solveResult{res, err}
	}()

	// In-flight view: poll /v1/requests until the traced request shows
	// up. The occupier runs for hundreds of milliseconds, so the request
	// is reliably observable while queued (or at latest while solving).
	var rj RequestJSON
	found := false
	for !found && time.Now().Before(deadline) {
		res, err := http.Get(cl.Base + api.PathRequests)
		if err != nil {
			t.Fatal(err)
		}
		var live []RequestJSON
		json.NewDecoder(res.Body).Decode(&live)
		res.Body.Close()
		for _, r := range live {
			if r.RequestID == reqID {
				rj, found = r, true
			}
		}
		if !found {
			time.Sleep(200 * time.Microsecond)
		}
	}
	if !found {
		t.Fatalf("request %s never appeared in GET %s while in flight", reqID, api.PathRequests)
	}
	if rj.Tenant != "acme" {
		t.Errorf("in-flight tenant = %q, want acme (header precedence)", rj.Tenant)
	}
	if rj.State != "queued" && rj.State != "solving" {
		t.Errorf("in-flight state = %q", rj.State)
	}
	if rj.State == "queued" && rj.QueuePos < 1 {
		t.Errorf("queued request has queue_pos %d, want >= 1", rj.QueuePos)
	}

	out := <-solved
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d", res.StatusCode)
	}
	if got := res.Header.Get(api.HeaderRequestID); got != reqID {
		t.Errorf("response %s = %q, want the caller's ID %q echoed", api.HeaderRequestID, got, reqID)
	}
	var resp api.Response
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Instances) != f.leaves {
		t.Fatalf("instances = %d, want %d", len(resp.Instances), f.leaves)
	}
	if err := <-occupied; err != nil {
		t.Fatalf("occupier solve: %v", err)
	}

	// Access log: exactly one line, with the resolved identity, an ok
	// verdict, and the time decomposition.
	var entry accessEntry
	lines := 0
	sc := bufio.NewScanner(strings.NewReader(access.String()))
	for sc.Scan() {
		var e accessEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad access-log line %q: %v", sc.Text(), err)
		}
		if e.RequestID == reqID {
			entry = e
			lines++
		}
	}
	if lines != 1 {
		t.Fatalf("access log has %d lines for %s, want 1; log:\n%s", lines, reqID, access.String())
	}
	if entry.Verdict != "ok" || entry.Tenant != "acme" || entry.Session != "sess-trace" {
		t.Errorf("access entry = %+v, want ok/acme/sess-trace", entry)
	}
	if entry.SolveMS <= 0 {
		t.Errorf("access entry solve_ms = %v, want > 0", entry.SolveMS)
	}
	if entry.Reencoded != f.leaves || entry.Dirty != f.leaves {
		t.Errorf("cold solve counts = %+v, want %d re-encoded (all dirty)", entry, f.leaves)
	}

	// Span tree: the solve's spans carry the request identity.
	spans, _ := tr.SpansFrom(0)
	byName := map[string]bool{}
	for _, sp := range spans {
		if sp.Attrs["request_id"] == reqID {
			byName[sp.Name] = true
			if sp.Attrs["tenant"] != "acme" {
				t.Errorf("span %s tenant = %v, want acme", sp.Name, sp.Attrs["tenant"])
			}
		}
	}
	if len(byName) == 0 {
		t.Fatal("no spans carry the request ID")
	}
	if !byName["session.solve"] {
		t.Errorf("request's spans %v missing the session.solve root", byName)
	}

	// Flight recorder: at least one event attributed to the request.
	attributed := 0
	for _, ev := range rec.Events() {
		if ev.Req == reqID {
			attributed++
		}
	}
	if attributed == 0 {
		t.Error("no flight-recorder events attributed to the request")
	}

	// Histogram exemplars: the service latency histograms retained the
	// ID as their bucket exemplar.
	for _, name := range []string{"aedd.queue_wait_ms", "aedd.solve_ms"} {
		h, ok := tr.Metrics().Snapshot().Histograms[name]
		if !ok {
			t.Errorf("histogram %s not registered", name)
			continue
		}
		found := false
		for _, e := range h.Exemplars {
			if e == reqID {
				found = true
			}
		}
		if !found {
			t.Errorf("histogram %s exemplars = %v, missing %s", name, h.Exemplars, reqID)
		}
	}
}

// TestAccessLogRetargeted: a session request that adds one policy to
// one destination re-encodes that destination, whose live instance has
// not encoded the policy; the request that removes it again is served
// by the live instance. The responses and access-log lines count the
// first as re-encoded and the second as retargeted — not re-encoded —
// and each as one dirty destination.
func TestAccessLogRetargeted(t *testing.T) {
	f := newFixture(3, 1)
	var access syncBuffer
	_, cl := start(t, Config{AccessLog: &access})
	ctx := context.Background()
	if _, err := cl.Do(ctx, f.request("", "s")); err != nil {
		t.Fatal(err)
	}
	add := f.request("", "s")
	add.Policies += "block 10.2.0.0/24 -> 10.0.0.0/24\n"
	add.RequestID = "req-add-policy"
	remove := f.request("", "s")
	remove.RequestID = "req-remove-policy"
	for _, step := range []struct {
		req                   *api.Request
		retargeted, reencoded int
	}{{add, 0, 1}, {remove, 1, 0}} {
		resp, err := cl.Do(ctx, step.req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Retargeted() != step.retargeted || resp.Cached() != f.leaves-1 || resp.Rebound() != 0 {
			t.Fatalf("%s: instances %+v: want %d retargeted, %d cached",
				step.req.RequestID, resp.Instances, step.retargeted, f.leaves-1)
		}
		var entry accessEntry
		sc := bufio.NewScanner(strings.NewReader(access.String()))
		for sc.Scan() {
			var e accessEntry
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("bad access-log line %q: %v", sc.Text(), err)
			}
			if e.RequestID == step.req.RequestID {
				entry = e
			}
		}
		if entry.Cached != f.leaves-1 || entry.Rebound != 0 || entry.Retargeted != step.retargeted ||
			entry.Reencoded != step.reencoded || entry.Dirty != 1 {
			t.Errorf("%s: access entry %+v: want %d cached, %d retargeted, %d re-encoded, 1 dirty",
				step.req.RequestID, entry, f.leaves-1, step.retargeted, step.reencoded)
		}
	}
}
