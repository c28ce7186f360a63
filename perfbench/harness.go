package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/obs"
)

// workload is one benchmark workload after set-up.
type workload interface {
	// clients is the number of concurrent closed-loop callers.
	clients() int
	// runBatch runs client c's next batch of operations into ph. A
	// batch is the unit the time budget is checked against: a pass over
	// the corpus, or one deck of script steps.
	runBatch(ctx context.Context, c int, ph *phase)
	// close releases what set-up started.
	close()
}

// phase accumulates one timed phase: operation latencies, failures,
// named counters and, when traced, the spans the benchmark records
// around its calls into the program.
type phase struct {
	tr *obs.Tracer // nil in untraced phases

	mu        sync.Mutex
	latMS     []float64
	attempted int
	failed    int
	firstErr  error
	counts    map[string]float64
	// fixed holds per-layer values a workload reads once per phase from
	// the program's own metrics, reported as they are.
	fixed   map[string]float64
	elapsed time.Duration
}

func newPhase(traced bool) *phase {
	ph := &phase{counts: make(map[string]float64), fixed: make(map[string]float64)}
	if traced {
		ph.tr = obs.NewTracer()
	}
	return ph
}

func (ph *phase) traced() bool { return ph.tr != nil }

// op records one finished operation.
func (ph *phase) op(d time.Duration, err error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.latMS = append(ph.latMS, float64(d.Nanoseconds())/1e6)
	ph.attempted++
	if err != nil {
		ph.failed++
		if ph.firstErr == nil {
			ph.firstErr = err
		}
	}
}

// add accumulates a named counter.
func (ph *phase) add(name string, v float64) {
	ph.mu.Lock()
	ph.counts[name] += v
	ph.mu.Unlock()
}

// set records a fixed per-layer value.
func (ph *phase) set(name string, v float64) {
	ph.mu.Lock()
	ph.fixed[name] = v
	ph.mu.Unlock()
}

func (ph *phase) has(name string) bool {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	_, ok := ph.counts[name]
	return ok
}

func (ph *phase) count(name string) float64 {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return ph.counts[name]
}

func (ph *phase) opsPerSec() float64 {
	return float64(ph.attempted) / ph.elapsed.Seconds()
}

// phaseHooks is implemented by workloads that read the program's own
// metrics over a phase.
type phaseHooks interface {
	beginPhase(ph *phase)
	endPhase(ph *phase)
}

// measure runs w's clients in a closed loop until budget is spent. A
// client finishes the batch in flight, so every batch runs whole and a
// run never ends on a partial pass, whose mix would differ from the
// corpus; the phase overruns the budget by at most one batch.
func measure(ctx context.Context, w workload, budget time.Duration, traced bool) *phase {
	ph := newPhase(traced)
	hooks, _ := w.(phaseHooks)
	if hooks != nil {
		hooks.beginPhase(ph)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n == 0 || time.Since(start) < budget; n++ {
				w.runBatch(ctx, c, ph)
			}
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	if hooks != nil {
		hooks.endPhase(ph)
	}
	return ph
}

// retainedHeapMB is the live heap after a forced collection.
func retainedHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// recordResult adds the counters a core result reports to ph. Cached
// instances cost no work in this call; rebound ones were re-solved but
// not re-encoded.
func recordResult(ph *phase, res *core.Result) {
	var inst, cached, rebound, busy, iters, vars, clauses, deltas float64
	for _, in := range res.Instances {
		inst++
		if in.Cached {
			cached++
			continue
		}
		busy += ms(in.Duration)
		iters += float64(in.Iterations)
		if in.Rebound {
			rebound++
			continue
		}
		vars += float64(in.NumVars)
		clauses += float64(in.NumClauses)
		deltas += float64(in.NumDeltas)
	}
	for name, v := range map[string]float64{
		"instances": inst, "cached": cached, "rebound": rebound,
		"instance_busy_ms": busy, "op_wall_ms": ms(res.Duration),
		"smt.maxsat_iterations": iters,
		"encode.vars":           vars, "encode.clauses": clauses, "encode.deltas": deltas,
		"sat.conflicts":      float64(res.Solver.Conflicts),
		"sat.propagations":   float64(res.Solver.Propagations),
		"sat.learned":        float64(res.Solver.Learned),
		"sat.peak_clause_kb": float64(res.Solver.PeakClauseBytes) / 1024,
		"encode.edits":       float64(len(res.Edits)),
	} {
		ph.add(name, v)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timed runs f under a child span of parent and returns its wall time
// in milliseconds.
func timed(parent *obs.Span, name string, f func()) float64 {
	sp := parent.Child(name)
	start := time.Now()
	f()
	d := time.Since(start)
	sp.End()
	return ms(d)
}

// metric is one reported value with the samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	summary
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(ph *phase, setups []float64, tailPct float64, heapMB float64) map[string]metric {
	lat := summarize(ph.latMS)
	tail := lat
	tail.Percentile = tailPct
	tail.BeyondSamples = float64(len(ph.latMS)) * (1 - tailPct/100)
	one := func(v float64) summary { return summarize([]float64{v}) }
	set := summarize(setups)
	return map[string]metric{
		"setup_s":          {Value: set.Median, Unit: "s", summary: set},
		"op_p50_ms":        {Value: lat.Median, Unit: "ms", summary: lat},
		"op_tail_ms":       {Value: percentile(ph.latMS, tailPct), Unit: "ms", summary: tail},
		"ops_per_s":        {Value: ph.opsPerSec(), Unit: "1/s", summary: one(ph.opsPerSec())},
		"retained_heap_mb": {Value: heapMB, Unit: "MB", summary: one(heapMB)},
	}
}

// spanEvents exports a tracer's finished spans for obs.Analyze.
func spanEvents(tr *obs.Tracer) []obs.Event {
	spans := tr.Spans()
	evs := make([]obs.Event, len(spans))
	for i, sp := range spans {
		evs[i] = tr.SpanEvent(sp)
	}
	return evs
}

// rootSpan names the span the benchmark opens around each operation;
// the layer spans are its descendants.
const rootSpan = "op"

// perLayer computes the per-layer metrics of a traced run. Counts that
// the program reports in its results come from the untraced phase (so
// the traced phase's extra calls cannot skew them); times come from the
// traced phase's spans, as obs.Analyze self time. Times and counts are
// per operation, ratios are over the whole phase.
func perLayer(plain, traced *phase) map[string]float64 {
	self := map[string]float64{}
	var rootUS, rootSelfUS float64
	for _, p := range obs.Analyze(spanEvents(traced.tr)).Phases() {
		self[p.Name] = float64(p.SelfUS) / 1000
		if p.Name == rootSpan {
			rootUS, rootSelfUS = float64(p.TotalUS), float64(p.SelfUS)
		}
	}
	tOps := float64(traced.attempted)
	pOps := float64(plain.attempted)
	perTracedOp := func(layer string) float64 {
		return (self[layer] + traced.count(layer+"_ms")) / tOps
	}
	perPlainOp := func(name string) float64 { return plain.count(name) / pOps }
	ratio := func(ph *phase, num, den string) float64 {
		if d := ph.count(den); d > 0 {
			return ph.count(num) / d
		}
		return 0
	}
	out := map[string]float64{
		"config.parse_ms":       perTracedOp("config.parse"),
		"api.materialize_ms":    perTracedOp("api.materialize"),
		"api.wire_kb":           traced.count("api.wire_kb") / tOps,
		"service.overhead_ms":   perPlainOp("service.overhead_ms"),
		"service.queue_wait_ms": 0,
		"core.cache_hit_ratio":  ratio(plain, "cached", "instances"),
		"core.rebind_ratio":     ratio(plain, "rebound", "instances"),
		"core.dirty_dests":      (plain.count("instances") - plain.count("cached")) / pOps,
		"core.session_other_ms": traced.count("core.session_other_ms") / tOps,
		"core.parallel_efficiency": ratio(plain, "instance_busy_ms", "op_wall_ms") /
			float64(runtime.GOMAXPROCS(0)),
		"encode.build_ms":         perTracedOp("encode.build"),
		"encode.vars":             perPlainOp("encode.vars"),
		"encode.clauses":          perPlainOp("encode.clauses"),
		"encode.deltas":           perPlainOp("encode.deltas"),
		"smt.intern_hit_ratio":    ratio(traced, "intern_hits", "intern_lookups"),
		"encode.rebind_ms":        perTracedOp("encode.rebind"),
		"encode.resolve_ms":       perTracedOp("encode.resolve"),
		"encode.bindings_swapped": traced.count("encode.bindings_swapped") / tOps,
		"smt.maxsat_ms":           perTracedOp("smt.maxsat"),
		"smt.maxsat_iterations":   perPlainOp("smt.maxsat_iterations"),
		"sat.conflicts":           perPlainOp("sat.conflicts"),
		"sat.propagations":        perPlainOp("sat.propagations"),
		"sat.propagations_per_s":  ratio(plain, "sat.propagations", "instance_busy_ms") * 1000,
		"sat.learned":             perPlainOp("sat.learned"),
		"sat.peak_clause_kb":      perPlainOp("sat.peak_clause_kb"),
		"encode.apply_ms":         perTracedOp("encode.apply"),
		"config.diff_ms":          perTracedOp("config.diff"),
		"encode.edits":            perPlainOp("encode.edits"),
		"simulate.validate_ms":    perTracedOp("simulate.validate"),
		"simulate.policies":       traced.count("simulate.policies") / tOps,
		"obs.trace_overhead_pct":  100 * (plain.opsPerSec() - traced.opsPerSec()) / plain.opsPerSec(),
		"trace.unattributed_pct":  0,
	}
	if rootUS > 0 {
		out["trace.unattributed_pct"] = 100 * rootSelfUS / rootUS
	}
	// A one-shot operation is driven layer by layer, so the time no
	// layer span covers is its remainder; session workloads time the
	// engine as a whole and report theirs as a count.
	if !traced.has("core.session_other_ms") {
		out["core.session_other_ms"] = rootSelfUS / 1000 / tOps
	}
	for name, v := range plain.fixed {
		out[name] = v
	}
	return out
}

// writeTrace writes the traced phase's spans as JSONL, the format
// aedtrace reads (aedtrace -phases <file> prints the same self times).
func writeTrace(path string, tr *obs.Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(f, tr); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
