package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"

	"github.com/aed-net/aed/internal/obs/aedt"
)

// Sink is the format half of the telemetry export API: one
// implementation per wire format, covering both the trace stream
// (spans + final metrics) and a flight-recorder drain. JSONLSink is
// the debugging format; BinarySink is the production AEDT format
// (columnar, CRC-checksummed, at least 5× smaller — see
// TestAEDTSizeFloor). SinkForPath picks one by file extension, which
// is how `aed -trace-out x.aedt` selects the binary format.
type Sink interface {
	// WriteTrace exports the tracer's finished spans and metrics.
	WriteTrace(w io.Writer, t *Tracer) error
	// WriteRecorder exports a flight-recorder drain (oldest first).
	WriteRecorder(w io.Writer, rec *Recorder) error
}

// SinkForPath returns the sink matching path's extension: ".aedt"
// selects the binary format, anything else JSONL.
func SinkForPath(path string) Sink {
	if strings.EqualFold(filepath.Ext(path), ".aedt") {
		return BinarySink{}
	}
	return JSONLSink{}
}

// JSONLSink exports telemetry as JSON-Lines events (the original
// debugging format).
type JSONLSink struct{}

// WriteTrace implements Sink via WriteJSONL.
func (JSONLSink) WriteTrace(w io.Writer, t *Tracer) error { return WriteJSONL(w, t) }

// WriteRecorder writes one Event line (type "recorder") per retained
// flight-recorder event, oldest first.
func (JSONLSink) WriteRecorder(w io.Writer, rec *Recorder) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range rec.Events() {
		if err := enc.Encode(recorderToEvent(ev)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// BinarySink exports telemetry in the AEDT binary format
// (internal/obs/aedt): columnar blocks, delta+varint timestamps,
// interned strings, CRC-checksummed, block-skippable.
type BinarySink struct{}

// WriteTrace implements Sink via WriteAEDT.
func (BinarySink) WriteTrace(w io.Writer, t *Tracer) error { return WriteAEDT(w, t) }

// WriteRecorder writes the recorder drain as an AEDT recorder stream.
func (BinarySink) WriteRecorder(w io.Writer, rec *Recorder) error {
	bw := aedt.NewWriter(w, aedt.StreamRecorder)
	appendRecorderEvents(bw, rec.Events())
	return bw.Close()
}

// WriteAEDT exports the tracer's finished spans followed by its
// metrics registry as an AEDT binary stream — the binary twin of
// WriteJSONL, carrying the same events.
func WriteAEDT(w io.Writer, t *Tracer) error {
	events := traceEvents(t)
	bw := aedt.NewWriter(w, streamKindFor(events))
	AppendAEDT(bw, events)
	return bw.Close()
}

// traceEvents materializes the WriteJSONL event sequence: finished
// spans in end order, then counters, gauges, histograms sorted by
// name, then the flight-recorder tail when a recorder is attached.
func traceEvents(t *Tracer) []Event {
	var out []Event
	for _, sp := range t.Spans() {
		out = append(out, spanEvent(sp, t.Epoch()))
	}
	snap := t.Metrics().Snapshot()
	for _, name := range sortedKeys(snap.Counters) {
		out = append(out, Event{Type: "counter", Name: name, Value: snap.Counters[name]})
	}
	for _, name := range sortedKeys(snap.Gauges) {
		g := snap.Gauges[name]
		out = append(out, Event{Type: "gauge", Name: name, Value: g.Value, Max: g.Max})
	}
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		out = append(out, Event{Type: "histogram", Name: name, Count: h.Count, Sum: h.Sum,
			Bounds: h.Bounds, Counts: h.Counts, Exemplars: h.Exemplars})
	}
	if rec := t.Recorder(); rec != nil {
		for _, ev := range rec.Events() {
			out = append(out, recorderToEvent(ev))
		}
	}
	return out
}

// AppendAEDT encodes events onto an open AEDT writer (the conversion
// core shared by WriteAEDT, the retention spiller, and aedtrace
// -convert). Events of unknown type are dropped.
func AppendAEDT(w *aedt.Writer, events []Event) {
	var rec aedt.Record
	for _, ev := range events {
		if eventToRecord(ev, &rec) {
			w.Append(&rec)
		}
	}
}

// appendRecorderEvents encodes drained recorder events directly
// (avoiding the Event detour on the spill path).
func appendRecorderEvents(w *aedt.Writer, events []RecorderEvent) {
	var rec aedt.Record
	for _, ev := range events {
		rec = aedt.Record{
			Kind: aedt.KindEvent, Time: ev.Time.UnixMicro(), Seq: ev.Seq,
			Name: ev.Kind, Label: ev.Label, A: ev.A, B: ev.B,
		}
		if ev.Req != "" {
			rec.Kind, rec.Req = aedt.KindEventReq, ev.Req
		}
		w.Append(&rec)
	}
}

// eventToRecord converts one exported event to its AEDT record form,
// reusing rec's slices. Returns false for event types AEDT does not
// carry.
func eventToRecord(ev Event, rec *aedt.Record) bool {
	*rec = aedt.Record{Attrs: rec.Attrs[:0], Bounds: rec.Bounds[:0], Counts: rec.Counts[:0],
		Exemplars: rec.Exemplars[:0]}
	switch ev.Type {
	case "", "span":
		rec.Kind = aedt.KindSpan
		rec.Time = ev.StartUS
		rec.ID = ev.ID
		rec.Parent = ev.Parent
		rec.Name = ev.Name
		rec.DurUS = ev.DurUS
		rec.Open = ev.Open
		for _, k := range sortedKeys(ev.Attrs) {
			rec.Attrs = append(rec.Attrs, attrToAEDT(k, ev.Attrs[k]))
		}
	case "counter":
		rec.Kind = aedt.KindCounter
		rec.Name = ev.Name
		rec.Value = ev.Value
	case "gauge":
		rec.Kind = aedt.KindGauge
		rec.Name = ev.Name
		rec.Value = ev.Value
		rec.Max = ev.Max
	case "histogram":
		rec.Kind = aedt.KindHistogram
		rec.Name = ev.Name
		rec.Count = ev.Count
		rec.Sum = ev.Sum
		rec.Bounds = append(rec.Bounds, ev.Bounds...)
		rec.Counts = append(rec.Counts, ev.Counts...)
		if len(ev.Exemplars) > 0 {
			rec.Kind = aedt.KindHistogramEx
			rec.Exemplars = append(rec.Exemplars, ev.Exemplars...)
		}
	case "recorder":
		rec.Kind = aedt.KindEvent
		rec.Time = ev.TimeUS
		rec.Seq = ev.Seq
		rec.Name = ev.Name
		rec.Label = ev.Label
		rec.A = ev.A
		rec.B = ev.B
		if ev.Req != "" {
			rec.Kind, rec.Req = aedt.KindEventReq, ev.Req
		}
	default:
		return false
	}
	return true
}

// attrToAEDT maps one span attribute value. Integral floats (what JSON
// decoding turns int attributes into) are stored as ints, so a
// JSONL→AEDT conversion round-trips the common attribute types to the
// same printed form.
func attrToAEDT(key string, v any) aedt.Attr {
	a := aedt.Attr{Key: key}
	switch x := v.(type) {
	case int64:
		a.Kind, a.Num = aedt.AttrInt, x
	case int:
		a.Kind, a.Num = aedt.AttrInt, int64(x)
	case bool:
		a.Kind = aedt.AttrBool
		if x {
			a.Num = 1
		}
	case string:
		a.Kind, a.Str = aedt.AttrStr, x
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
			a.Kind, a.Num = aedt.AttrInt, int64(x)
		} else {
			a.Kind, a.Num = aedt.AttrFloat, int64(math.Float64bits(x))
		}
	default:
		a.Kind, a.Str = aedt.AttrStr, fmt.Sprint(v)
	}
	return a
}

// recordToEvent converts one decoded AEDT record back to the exported
// event form. Records of unknown kind are dropped (forward
// compatibility), reported via the second return.
func recordToEvent(rec *aedt.Record) (Event, bool) {
	switch rec.Kind {
	case aedt.KindSpan:
		ev := Event{Type: "span", ID: rec.ID, Parent: rec.Parent, Name: rec.Name,
			StartUS: rec.Time, DurUS: rec.DurUS, Open: rec.Open}
		if len(rec.Attrs) > 0 {
			ev.Attrs = make(map[string]any, len(rec.Attrs))
			for _, a := range rec.Attrs {
				switch a.Kind {
				case aedt.AttrInt, aedt.AttrDur:
					ev.Attrs[a.Key] = a.Num
				case aedt.AttrBool:
					ev.Attrs[a.Key] = a.Num == 1
				case aedt.AttrStr:
					ev.Attrs[a.Key] = a.Str
				case aedt.AttrFloat:
					ev.Attrs[a.Key] = math.Float64frombits(uint64(a.Num))
				}
			}
		}
		return ev, true
	case aedt.KindCounter:
		return Event{Type: "counter", Name: rec.Name, Value: rec.Value}, true
	case aedt.KindGauge:
		return Event{Type: "gauge", Name: rec.Name, Value: rec.Value, Max: rec.Max}, true
	case aedt.KindHistogram, aedt.KindHistogramEx:
		ev := Event{Type: "histogram", Name: rec.Name, Count: rec.Count, Sum: rec.Sum,
			Bounds: append([]float64(nil), rec.Bounds...),
			Counts: append([]int64(nil), rec.Counts...)}
		if len(rec.Exemplars) > 0 {
			ev.Exemplars = append([]string(nil), rec.Exemplars...)
		}
		return ev, true
	case aedt.KindEvent, aedt.KindEventReq:
		return Event{Type: "recorder", Name: rec.Name, Seq: rec.Seq, TimeUS: rec.Time,
			Label: rec.Label, Req: rec.Req, A: rec.A, B: rec.B}, true
	}
	return Event{}, false
}

// WriteEventsTo writes already-decoded events to w in the format
// selected by path's extension (SinkForPath rules). This is the
// conversion core of `aedtrace -convert`: a decoded stream re-encodes
// losslessly into either format.
func WriteEventsTo(w io.Writer, path string, events []Event) error {
	if _, binary := SinkForPath(path).(BinarySink); binary {
		bw := aedt.NewWriter(w, streamKindFor(events))
		AppendAEDT(bw, events)
		return bw.Close()
	}
	buf := bufio.NewWriter(w)
	enc := json.NewEncoder(buf)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return buf.Flush()
}

// streamKindFor classifies an event mix for the AEDT header hint.
func streamKindFor(events []Event) aedt.StreamKind {
	var trace, recorder bool
	for _, ev := range events {
		if ev.Type == "recorder" {
			recorder = true
		} else {
			trace = true
		}
	}
	switch {
	case recorder && trace:
		return aedt.StreamMixed
	case recorder:
		return aedt.StreamRecorder
	}
	return aedt.StreamTrace
}

// ReadAEDT decodes an AEDT stream into exported events. Errors are
// loud: a truncated or corrupt block fails the whole read instead of
// returning a silent partial parse.
func ReadAEDT(r io.Reader) ([]Event, error) {
	rd, err := aedt.NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []Event
	var rec aedt.Record
	for {
		if err := rd.Next(&rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, err
		}
		if ev, ok := recordToEvent(&rec); ok {
			out = append(out, ev)
		}
	}
}

// ReadEventsAuto sniffs the stream format by magic — AEDT binary vs
// JSONL — and decodes with the matching reader. This is what lets
// aedtrace accept both formats transparently.
func ReadEventsAuto(r io.Reader) ([]Event, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	head, err := br.Peek(len(aedt.Magic))
	if err != nil && len(head) == 0 && err != io.EOF {
		return nil, err
	}
	if aedt.DetectAEDT(head) {
		return ReadAEDT(br)
	}
	return ReadEvents(br)
}
