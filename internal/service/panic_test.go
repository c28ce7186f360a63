package service

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/aed-net/aed/internal/api"
	"github.com/aed-net/aed/internal/obs"
)

// TestPanicContainedPerTenant injects a panic into tenant a's session
// solve while tenant b solves beside it. a's request must fail alone,
// as an internal error naming its request ID, with its session evicted
// and its lock released; b's solve must succeed; every admitted request
// must complete, the panicking one's time included in a's accounting;
// and a's next request must build a fresh session and succeed.
func TestPanicContainedPerTenant(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	solveHook = func(tenant string) {
		if tenant == "a" && armed.CompareAndSwap(true, false) {
			panic("injected fault")
		}
	}
	t.Cleanup(func() { solveHook = nil })

	f := newFixture(3, 1)
	svc, cl := start(t, Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	reqA := f.request("a", "s")
	reqA.RequestID = "req-panic-a"
	var wg sync.WaitGroup
	var status int
	var werr api.WireError
	wg.Add(2)
	go func() {
		defer wg.Done()
		status, werr = rawStatus(t, cl.Base, reqA)
	}()
	go func() {
		defer wg.Done()
		if _, err := cl.Do(ctx, f.request("b", "s")); err != nil {
			t.Errorf("tenant b's solve beside the panic: %v", err)
		}
	}()
	wg.Wait()

	if status != http.StatusInternalServerError || werr.Code != api.CodeInternal {
		t.Fatalf("panicking request: status %d code %q, want 500 %q", status, werr.Code, api.CodeInternal)
	}
	if !strings.Contains(werr.Message, "req-panic-a") || !strings.Contains(werr.Message, "injected fault") {
		t.Errorf("internal error message %q names neither the request ID nor the panic", werr.Message)
	}
	sessions, err := cl.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		if s.Tenant == "a" {
			t.Errorf("tenant a's session survived its panic: %+v", s)
		}
	}

	// The lock was released and the session is rebuilt from scratch.
	resp, err := cl.Do(ctx, f.request("a", "s"))
	if err != nil {
		t.Fatalf("tenant a after its panic: %v", err)
	}
	if resp.Cached() != 0 {
		t.Errorf("tenant a's rebuilt session served %d cached instances", resp.Cached())
	}
	if _, err := cl.Do(ctx, f.request("b", "s")); err != nil {
		t.Fatalf("tenant b after a's panic: %v", err)
	}

	m := svc.Tracer().Metrics()
	if admitted, done := m.Counter("aedd.admitted").Value(), m.Counter("aedd.completed").Value(); admitted != done || admitted != 4 {
		t.Errorf("admitted = %d, completed = %d, want 4 each", admitted, done)
	}
	if n := m.Counter("aedd.panics").Value(); n != 1 {
		t.Errorf("aedd.panics = %d, want 1", n)
	}
	// The panicking request's time is accounted like any other's.
	if n := m.Histogram("aedd.tenant.a.solve_ms", obs.LatencyBuckets).Count(); n != 2 {
		t.Errorf("aedd.tenant.a.solve_ms holds %d requests, want 2 (the panicking one too)", n)
	}
}
