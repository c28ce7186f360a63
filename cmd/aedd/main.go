// Command aedd is the AED synthesis service: a long-lived daemon
// hosting many named incremental sessions for many tenants behind an
// HTTP API.
//
// Usage:
//
//	aedd [-addr :7070] [-workers N] [-queue N]
//	     [-default-timeout 60s] [-max-timeout 10m]
//	     [-tenant-budget 0] [-budget-window 1m]
//	     [-max-sessions 64]
//	     [-access-log FILE]
//	     [-retain DIR] [-retain-max-mb MB]
//	     [-debug-addr ADDR]
//
// The API (see docs/SERVICE.md for the full contract):
//
//	POST   /v1/solve            submit an aed.Request, get an aed.Response
//	GET    /v1/sessions         list live sessions
//	DELETE /v1/sessions/{name}  drop a session (?tenant= scopes it)
//	GET    /v1/requests         in-flight requests with open span trees
//	GET    /healthz             liveness + admission state
//	GET    /metrics /spans /recorder /debug/pprof/   obs debug surface
//
// -access-log FILE appends one JSON line per request (request ID,
// tenant, verdict, queue wait, solve time, cache tiers hit); "-" logs
// to stderr. Every request carries an ID — caller-set via the
// X-AED-Request-Id header or request_id field, server-assigned
// otherwise — that the access log, spans, incidents, and exemplars all
// share; filter any telemetry stream to one request with
// `aedtrace -request <id>`.
//
// The debug surface is served natively on -addr; -debug-addr
// additionally serves it on a second listener (e.g. a loopback-only
// port when -addr is public).
//
// On SIGINT/SIGTERM aedd stops admitting work (503 with the draining
// error code), drains every admitted solve to completion, then closes
// the listener — no in-flight request is dropped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/service"
)

func main() {
	var (
		addr           = flag.String("addr", ":7070", "listen address for the service API")
		workers        = flag.Int("workers", 0, "solver pool size (0 = GOMAXPROCS)")
		queueDepth     = flag.Int("queue", 0, "bounded request queue depth (0 = 2x workers)")
		defaultTimeout = flag.Duration("default-timeout", 0, "deadline for requests without timeout_ms (0 = 60s)")
		maxTimeout     = flag.Duration("max-timeout", 0, "clamp on request deadlines (0 = 10m)")
		tenantBudget   = flag.Duration("tenant-budget", 0, "solver time each tenant may spend per window (0 = unlimited)")
		budgetWindow   = flag.Duration("budget-window", 0, "tenant budget refill interval (0 = 1m)")
		maxSessions    = flag.Int("max-sessions", 0, "cap on live sessions across tenants, LRU-evicted (0 = 64)")
		accessLog      = flag.String("access-log", "", "append one JSON line per request to FILE (\"-\" = stderr)")
		drainTimeout   = flag.Duration("drain-timeout", 5*time.Minute, "how long shutdown waits for in-flight solves")
		retainDir      = flag.String("retain", "", "continuously spill telemetry to rotating gzip JSONL segments in DIR")
		retainMB       = flag.Int("retain-max-mb", 64, "total on-disk cap for -retain segments, in MiB")
		debugAddr      = flag.String("debug-addr", "", "serve the debug surface on a second address (it is always on -addr too)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "aedd: unexpected arguments:", flag.Args())
		os.Exit(2)
	}

	var accessW io.Writer
	switch *accessLog {
	case "":
	case "-":
		accessW = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		check(err)
		defer f.Close()
		accessW = f
	}

	tracer := obs.NewCLITracer()
	svc := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		TenantBudget:   *tenantBudget,
		BudgetWindow:   *budgetWindow,
		MaxSessions:    *maxSessions,
		Tracer:         tracer,
		AccessLog:      accessW,
	})

	if *debugAddr != "" {
		closeDebug, err := obs.ServeDebugCLI("aedd", *debugAddr, tracer)
		check(err)
		defer closeDebug()
	}
	var retention *obs.Retention
	if *retainDir != "" {
		ret, err := obs.NewRetention(tracer, obs.RetentionOptions{
			Dir: *retainDir, MaxBytes: int64(*retainMB) << 20,
		})
		check(err)
		retention = ret
		fmt.Fprintf(os.Stderr, "aedd: retaining telemetry segments in %s (cap %d MiB)\n", *retainDir, *retainMB)
	}

	ln, err := net.Listen("tcp", *addr)
	check(err)
	srv := &http.Server{Handler: svc.Handler()}
	fmt.Fprintf(os.Stderr, "aedd: serving on http://%s (POST /v1/solve)\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		check(err)
	case <-ctx.Done():
	}

	// Drain order matters for the zero-drop guarantee: first close
	// admission and wait for every admitted solve (handlers are still
	// blocked on their result channels and need the HTTP server alive),
	// then shut the HTTP server down, which waits for those handlers to
	// finish writing their responses.
	fmt.Fprintln(os.Stderr, "aedd: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "aedd: drain incomplete:", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "aedd: http shutdown:", err)
	}
	if retention != nil {
		if err := retention.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "aedd: retention:", err)
		}
	}
	fmt.Fprintln(os.Stderr, "aedd: stopped")
}

func check(err error) {
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "aedd:", err)
		os.Exit(1)
	}
}
