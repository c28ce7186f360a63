package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"
)

// DebugMux builds the live-observability HTTP handler for a running
// process (aed -debug-addr / aedbench -debug-addr):
//
//	GET /metrics      registry snapshot as JSON (counters, gauges,
//	                  histograms with mean + p50/p95/p99)
//	GET /spans        span tree as JSON: finished spans plus in-flight
//	                  ones (open=true, elapsed-so-far durations)
//	GET /recorder     flight-recorder drain (oldest first) + drop count
//	GET /debug/pprof/ stdlib profiling (CPU/heap of the CDCL hot path)
//
// Every route is safe to hit during a live solve: snapshots are taken
// through the same race-free paths the sinks use.
func DebugMux(t *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("aed debug endpoint\n\n/metrics\n/spans\n/recorder\n/debug/pprof/\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, metricsPayload(t))
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, spansPayload(t))
	})
	mux.HandleFunc("/recorder", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, recorderPayload(t.Recorder()))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// HistogramJSON is the /metrics wire form of one histogram: the raw
// buckets plus the derived statistics a dashboard wants directly.
type HistogramJSON struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Mean   float64   `json:"mean"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	// Exemplars, parallel to Counts, maps each bucket to the last
	// request ID observed into it (see Histogram.ObserveExemplar);
	// omitted for histograms never fed an exemplar.
	Exemplars []string `json:"exemplars,omitempty"`
}

// MetricsJSON is the /metrics response body.
type MetricsJSON struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]GaugeSnapshot `json:"gauges"`
	Histograms map[string]HistogramJSON `json:"histograms"`
}

func metricsPayload(t *Tracer) MetricsJSON {
	snap := t.Metrics().Snapshot()
	out := MetricsJSON{
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: make(map[string]HistogramJSON, len(snap.Histograms)),
	}
	if out.Counters == nil {
		out.Counters = map[string]int64{}
	}
	if out.Gauges == nil {
		out.Gauges = map[string]GaugeSnapshot{}
	}
	for name, h := range snap.Histograms {
		out.Histograms[name] = HistogramJSON{
			Count: h.Count, Sum: h.Sum, Mean: h.Mean(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			Bounds: h.Bounds, Counts: h.Counts, Exemplars: h.Exemplars,
		}
	}
	return out
}

// SpansJSON is the /spans response body: every recorded span plus the
// in-flight ones, in one list (open spans carry open=true and
// elapsed-so-far durations), ready for tree reconstruction by parent
// IDs — the same shape aedtrace consumes offline.
type SpansJSON struct {
	EpochUS int64   `json:"epoch_us"` // tracer epoch, µs since Unix epoch
	Spans   []Event `json:"spans"`
}

func spansPayload(t *Tracer) SpansJSON {
	out := SpansJSON{EpochUS: t.Epoch().UnixMicro(), Spans: []Event{}}
	for _, sp := range t.Spans() {
		out.Spans = append(out.Spans, spanEvent(sp, t.Epoch()))
	}
	for _, sp := range t.OpenSpans() {
		out.Spans = append(out.Spans, spanEvent(sp, t.Epoch()))
	}
	return out
}

// RecorderJSON is the /recorder response body.
type RecorderJSON struct {
	Capacity int             `json:"capacity"`
	Dropped  uint64          `json:"dropped"`
	Events   []RecorderEvent `json:"events"`
}

func recorderPayload(rec *Recorder) RecorderJSON {
	out := RecorderJSON{Capacity: rec.Cap(), Dropped: rec.Dropped(), Events: rec.Events()}
	if out.Events == nil {
		out.Events = []RecorderEvent{}
	}
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// NewCLITracer returns the standard telemetry root a long-running
// consumer (aed, aedbench, aedd) starts with: an enabled tracer that
// retains the newest DefaultSpanCapacity finished spans, with a
// default-capacity flight recorder attached.
func NewCLITracer() *Tracer {
	t := newRingTracer(DefaultSpanCapacity)
	t.SetRecorder(NewRecorder(DefaultRecorderCapacity))
	return t
}

// ServeDebugCLI is the shared -debug-addr wiring of the CLIs: it
// starts the debug endpoint on addr, announces the bound address and
// route list on stderr prefixed with the program name, and returns the
// shutdown function. cmd/aed, cmd/aedbench, and cmd/aedd all use it so
// the flag behaves identically everywhere.
func ServeDebugCLI(app, addr string, t *Tracer) (func() error, error) {
	bound, closeFn, err := ServeDebug(addr, t)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: debug endpoint on http://%s (/metrics /spans /recorder /debug/pprof/)\n", app, bound)
	return closeFn, nil
}

// ServeDebug starts the debug endpoint on addr in a background
// goroutine and returns the bound address (useful with ":0") and a
// shutdown function. The server lives until close is called or the
// process exits; handler errors never affect the solve.
func ServeDebug(addr string, t *Tracer) (boundAddr string, close func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: DebugMux(t), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return ln.Addr().String(), func() error { return srv.Close() }, nil
}
