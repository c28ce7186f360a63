package obs

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Event is one exported telemetry record: a finished span, one
// metric's final state, or one flight-recorder event. The JSONL sink
// writes one Event per line; ReadEvents decodes them back, plain or
// gzip-compressed (retention segments), so traces round-trip for
// tooling and tests.
type Event struct {
	Type string `json:"type"` // "span" | "counter" | "gauge" | "histogram" | "recorder"

	// Span fields.
	ID      uint64         `json:"id,omitempty"`
	Parent  uint64         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us,omitempty"` // offset from the tracer epoch
	DurUS   int64          `json:"dur_us,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	// Open marks an in-flight span (live /spans view and incident
	// records only; DurUS is elapsed-so-far then). Never set in traces
	// written by WriteJSONL, which exports finished spans.
	Open bool `json:"open,omitempty"`

	// Metric fields.
	Value  int64     `json:"value,omitempty"`
	Max    int64     `json:"max,omitempty"`
	Count  int64     `json:"count,omitempty"`
	Sum    float64   `json:"sum,omitempty"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
	// Exemplars, for histogram events, holds each bucket's last
	// observed request ID, parallel to Counts (see
	// Histogram.ObserveExemplar). Omitted when no bucket has one.
	Exemplars []string `json:"exemplars,omitempty"`

	// Flight-recorder fields (Type == "recorder"; Name holds the event
	// kind). TimeUS is absolute wall-clock µs since the Unix epoch —
	// unlike a span's StartUS, which is an offset from the tracer epoch.
	Seq    uint64 `json:"seq,omitempty"`
	TimeUS int64  `json:"time_us,omitempty"`
	Label  string `json:"label,omitempty"`
	// Req attributes a recorder event to a request ID (see
	// Recorder.RecordRequest); empty for unattributed events.
	Req string `json:"req,omitempty"`
	A   int64  `json:"a,omitempty"`
	B   int64  `json:"b,omitempty"`
}

// recorderToEvent converts one drained flight-recorder event to its
// exported Event form.
func recorderToEvent(ev RecorderEvent) Event {
	return Event{
		Type: "recorder", Name: ev.Kind, Seq: ev.Seq,
		TimeUS: ev.Time.UnixMicro(), Label: ev.Label, Req: ev.Req, A: ev.A, B: ev.B,
	}
}

// SpanEvent converts one span record to its exported Event form, with
// the start offset relative to the tracer's epoch — the conversion used
// for live span views outside this package (the service's /requests
// route renders each in-flight request's open span subtree with it).
func (t *Tracer) SpanEvent(sp SpanRecord) Event {
	return spanEvent(sp, t.Epoch())
}

// spanEvent converts a span record to its exported event form, with
// the start offset relative to epoch.
func spanEvent(sp SpanRecord, epoch time.Time) Event {
	return Event{
		Type:    "span",
		ID:      sp.ID,
		Parent:  sp.Parent,
		Name:    sp.Name,
		StartUS: sp.Start.Sub(epoch).Microseconds(),
		DurUS:   sp.Duration.Microseconds(),
		Attrs:   sp.Attrs,
		Open:    sp.Open,
	}
}

// WriteJSONL exports the tracer's finished spans, its metrics
// registry, and — when a flight recorder is attached — the recorder
// tail, as JSON-Lines events.
func WriteJSONL(w io.Writer, t *Tracer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range t.Spans() {
		if err := enc.Encode(spanEvent(sp, t.Epoch())); err != nil {
			return err
		}
	}
	snap := t.Metrics().Snapshot()
	for _, name := range sortedKeys(snap.Counters) {
		if err := enc.Encode(Event{Type: "counter", Name: name, Value: snap.Counters[name]}); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Gauges) {
		g := snap.Gauges[name]
		if err := enc.Encode(Event{Type: "gauge", Name: name, Value: g.Value, Max: g.Max}); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		ev := Event{Type: "histogram", Name: name, Count: h.Count, Sum: h.Sum,
			Bounds: h.Bounds, Counts: h.Counts, Exemplars: h.Exemplars}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if rec := t.Recorder(); rec != nil {
		if err := encodeRecorder(enc, rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteRecorderJSONL writes one Event line (type "recorder") per
// retained flight-recorder event, oldest first.
func WriteRecorderJSONL(w io.Writer, rec *Recorder) error {
	bw := bufio.NewWriter(w)
	if err := encodeRecorder(json.NewEncoder(bw), rec); err != nil {
		return err
	}
	return bw.Flush()
}

func encodeRecorder(enc *json.Encoder, rec *Recorder) error {
	for _, ev := range rec.Events() {
		if err := enc.Encode(recorderToEvent(ev)); err != nil {
			return err
		}
	}
	return nil
}

// ReadEvents decodes a JSONL event stream: a trace written by
// WriteJSONL, or the same lines compressed as one or more gzip members
// (a retention segment). The gzip magic 1f 8b in the first two bytes
// selects decompression. Decoding is strict: a torn member
// (io.ErrUnexpectedEOF), a CRC mismatch (gzip.ErrChecksum), bytes
// after the last member, or a line that is not one JSON event fails
// the whole read instead of returning a partial trace.
func ReadEvents(r io.Reader) ([]Event, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	if head, _ := br.Peek(2); len(head) == 2 && head[0] == 0x1f && head[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("obs: gzip trace: %w", err)
		}
		br = bufio.NewReaderSize(zr, 64*1024)
	}
	var out []Event
	for {
		line, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("obs: reading trace: %w", err)
		}
		if line = bytes.TrimSpace(line); len(line) > 0 {
			var ev Event
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				return nil, fmt.Errorf("obs: bad trace line %q: %w", line, jerr)
			}
			out = append(out, ev)
		}
		if err == io.EOF {
			return out, nil
		}
	}
}

// WriteSummary renders the span tree and the metrics registry as a
// human-readable report.
func WriteSummary(w io.Writer, t *Tracer) {
	spans := t.Spans()
	children := make(map[uint64][]SpanRecord)
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	}
	if len(spans) > 0 {
		fmt.Fprintln(w, "spans:")
		var walk func(parent uint64, depth int)
		walk = func(parent uint64, depth int) {
			for _, sp := range children[parent] {
				fmt.Fprintf(w, "  %s%-*s %10v%s\n", strings.Repeat("  ", depth),
					32-2*depth, sp.Name, sp.Duration.Round(1000), attrString(sp.Attrs))
				walk(sp.ID, depth+1)
			}
		}
		walk(0, 0)
	}
	snap := t.Metrics().Snapshot()
	if len(snap.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, name := range sortedKeys(snap.Counters) {
			fmt.Fprintf(w, "  %-32s %d\n", name, snap.Counters[name])
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, name := range sortedKeys(snap.Gauges) {
			g := snap.Gauges[name]
			fmt.Fprintf(w, "  %-32s %d (max %d)\n", name, g.Value, g.Max)
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		for _, name := range sortedKeys(snap.Histograms) {
			h := snap.Histograms[name]
			fmt.Fprintf(w, "  %-32s n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f sum=%.3f\n",
				name, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Sum)
		}
	}
}

func attrString(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	for _, k := range sortedKeys(attrs) {
		fmt.Fprintf(&b, " %s=%v", k, attrs[k])
	}
	return "  {" + strings.TrimSpace(b.String()) + "}"
}
