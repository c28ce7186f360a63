package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/aed-net/aed/internal/api"
	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/service"
)

const (
	serviceClients    = 2
	tenantsPerClient  = 2
	serviceSession    = "edits"
	queueWaitHist     = "aedd.queue_wait_ms"
	arenaPeakGauge    = "solver.arena_peak_bytes"
	serviceBatchSteps = 10
)

// serviceMix is an in-process aedd on a loopback listener, driven by
// closed-loop clients that each own tenantsPerClient tenants.
type serviceMix struct {
	*sessionInputs
	cold     []problem
	coldWant []expect

	svc       *service.Server
	srv       *http.Server
	served    chan struct{}
	transport *http.Transport
	cl        *api.Client

	scripts []*script    // one per tenant
	coldRng []*rand.Rand // one per client

	queueBefore obs.HistogramSnapshot
}

func tenantName(t int) string { return fmt.Sprintf("tenant%d", t) }

func newServiceMix(ctx context.Context, seed int64, leaves, spines int) (*serviceMix, error) {
	rng := rand.New(rand.NewSource(seed))
	in, err := parseFabric(newFabric(leaves, spines))
	if err != nil {
		return nil, err
	}
	// The cold problems use one fixed blocking draw: a cold request's cost
	// moves with the draw, and they are too few per run to average it out.
	// The seed picks which of them each cold step sends.
	w := &serviceMix{sessionInputs: in, cold: fleetProblems(rand.New(rand.NewSource(0)), 3, 6)}
	for t := 0; t < serviceClients*tenantsPerClient; t++ {
		w.scripts = append(w.scripts, newScript(rng.Int63(), serviceDeck))
	}
	for c := 0; c < serviceClients; c++ {
		w.coldRng = append(w.coldRng, rand.New(rand.NewSource(rng.Int63())))
	}

	w.svc = service.New(service.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.svc.Shutdown(ctx)
		return nil, err
	}
	w.srv = &http.Server{Handler: w.svc.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.srv.Serve(ln)
	}()
	w.transport = &http.Transport{MaxIdleConnsPerHost: serviceClients}
	w.cl = &api.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: w.transport}}

	// Prime every tenant's session with a cold solve of the initial
	// state, each client priming its own tenants.
	errs := make([]error, serviceClients)
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, t := range w.tenantsOf(c) {
				if _, err := w.cl.Do(ctx, w.sessionRequest(t, sessionState{})); err != nil {
					errs[c] = fmt.Errorf("priming %s: %w", tenantName(t), err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *serviceMix) tenantsOf(c int) []int {
	out := make([]int, tenantsPerClient)
	for i := range out {
		out[i] = c*tenantsPerClient + i
	}
	return out
}

func (w *serviceMix) sessionRequest(t int, st sessionState) *api.Request {
	return &api.Request{
		Tenant:   tenantName(t),
		Session:  serviceSession,
		Configs:  w.fab.Configs[st.LP],
		Topology: w.fab.Topology,
		Policies: w.fab.Policies[st.Extra],
		Options:  api.SolveOptions{MinimizeLines: sessionOptions.MinimizeLines},
	}
}

func (w *serviceMix) coldRequest(t, i int) *api.Request {
	p := w.cold[i]
	return &api.Request{
		Tenant:     tenantName(t),
		Configs:    p.Configs,
		Topology:   p.Topology,
		Policies:   p.Policies,
		Objectives: p.Objectives,
	}
}

func (w *serviceMix) prepareOracle(ctx context.Context) error {
	if err := w.sessionInputs.prepareOracle(ctx); err != nil {
		return err
	}
	for _, p := range w.cold {
		want, err := problemOracle(ctx, p)
		if err != nil {
			return err
		}
		w.coldWant = append(w.coldWant, want)
	}
	return nil
}

func (w *serviceMix) clients() int { return serviceClients }

// close stops the listener, drains the service and waits for the
// serving goroutine to return.
func (w *serviceMix) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	w.srv.Shutdown(ctx)
	w.svc.Shutdown(ctx)
	w.transport.CloseIdleConnections()
	<-w.served
}

// beginPhase and endPhase read the service's own queue-wait histogram
// and solver arena gauge over the phase.
func (w *serviceMix) beginPhase(*phase) {
	w.queueBefore = w.svc.Tracer().Metrics().Snapshot().Histograms[queueWaitHist]
}

func (w *serviceMix) endPhase(ph *phase) {
	snap := w.svc.Tracer().Metrics().Snapshot()
	q := snap.Histograms[queueWaitHist]
	if n := q.Count - w.queueBefore.Count; n > 0 {
		ph.set("service.queue_wait_ms", (q.Sum-w.queueBefore.Sum)/float64(n))
	}
	// The gauge holds the largest clause arena any solver of the service
	// has reached; the wire response carries no per-request figure.
	ph.set("sat.peak_clause_kb", float64(snap.Gauges[arenaPeakGauge].Max)/1024)
}

func (w *serviceMix) runBatch(ctx context.Context, c int, ph *phase) {
	tenants := w.tenantsOf(c)
	for i := 0; i < serviceBatchSteps; i++ {
		t := tenants[i%len(tenants)]
		kind, st := w.scripts[t].next()
		req, want := w.sessionRequest(t, st), w.want[st.key()]
		if kind == stepCold {
			k := w.coldRng[c].Intn(len(w.cold))
			req, want = w.coldRequest(t, k), w.coldWant[k]
		}
		w.do(ctx, req, want, ph)
	}
}

// do sends one request and checks the response against the oracle. In
// the traced phase it also repeats, from the client side, the parse and
// validate work the service did on the request.
func (w *serviceMix) do(ctx context.Context, req *api.Request, want expect, ph *phase) {
	root := ph.tr.Start(rootSpan)
	defer root.End()
	var resp *api.Response
	var err error
	start := time.Now()
	timed(root, "service.http", func() { resp, err = w.cl.Do(ctx, req) })
	d := time.Since(start)
	var unsat *core.UnsatError
	switch {
	case errors.As(err, &unsat):
		err = checkOutcome(want, false, 0, 0)
	case err == nil:
		err = checkOutcome(want, true, resp.ObjectiveViolations, len(resp.Violations))
	}
	if err != nil || resp == nil {
		ph.op(d, err)
		return
	}
	recordResponse(ph, resp, d)
	if ph.traced() {
		err = w.shadowCalls(root, ph, req, resp)
	}
	ph.op(d, err)
}

// shadowCalls times Materialize and the parsers on the request, then
// diff and validate on the configurations the response carries.
func (w *serviceMix) shadowCalls(root *obs.Span, ph *phase, req *api.Request, resp *api.Response) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	out, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	ph.add("api.wire_kb", float64(len(body)+len(out))/1024)

	var prob *api.Problem
	timed(root, "api.materialize", func() { prob, err = req.Materialize() })
	if err != nil {
		return err
	}
	timed(root, "config.parse", func() {
		_, err = parseProblem(req.Configs, req.Topology, req.Policies, req.Objectives)
	})
	if err != nil {
		return err
	}
	var updated *config.Network
	timed(root, "response.parse", func() { updated, err = config.ParseNetwork(resp.Configs) })
	if err != nil {
		return err
	}
	checkMS, _ := diffValidate(root, ph, prob.Net, updated, prob.Topo, prob.Policies)
	ph.add("core.session_other_ms", resp.DurationMS-resp.SolveTimeMS-checkMS)
	return nil
}

// recordResponse adds the counters a wire response reports to ph.
func recordResponse(ph *phase, resp *api.Response, latency time.Duration) {
	var inst, cached, rebound, busy, iters float64
	for _, in := range resp.Instances {
		inst++
		if in.Cached {
			cached++
			continue
		}
		if in.Rebound {
			rebound++
		}
		busy += in.DurationMS
		iters += float64(in.Iterations)
	}
	for name, v := range map[string]float64{
		"instances": inst, "cached": cached, "rebound": rebound,
		"instance_busy_ms": busy, "op_wall_ms": resp.DurationMS,
		"smt.maxsat_iterations": iters,
		"sat.conflicts":         float64(resp.Solver.Conflicts),
		"sat.propagations":      float64(resp.Solver.Propagations),
		"sat.learned":           float64(resp.Solver.Learned),
		"encode.edits":          float64(len(resp.Edits)),
		"service.overhead_ms":   ms(latency) - resp.DurationMS,
		"smt.maxsat_ms":         resp.SolveTimeMS,
	} {
		ph.add(name, v)
	}
}
