// Package obs is AED's telemetry layer: hierarchical spans over the
// synthesis pipeline (parse → encode → solve → extract → validate), a
// goroutine-safe registry of counters/gauges/histograms fed by the SAT
// solver's progress hooks, a fixed-capacity flight recorder of solver
// events, and sinks that export all of it as JSONL events, a
// human-readable summary, or live over the HTTP debug endpoint.
//
// The package is stdlib-only and allocation-free when disabled: every
// method on *Tracer, *Span, *Counter, *Gauge, *Histogram and *Recorder
// is nil-safe, so callers thread a possibly-nil tracer through the
// pipeline without guards and pay only a nil check when telemetry is
// off (verified by TestNilTracerZeroAlloc).
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects finished spans and owns the metrics registry for one
// synthesis run (or one CLI/bench process). A nil *Tracer is a valid
// no-op tracer. Tracer is safe for concurrent use: the parallel
// per-destination workers in core.solveSplit record spans and metrics
// into one shared tracer.
type Tracer struct {
	mu sync.Mutex
	// spans holds the finished spans. With spanCap > 0 it is a ring of
	// that many entries: the span with sequence number k (the k-th to
	// end, from 0) sits at k % spanCap until it is overwritten.
	spans   []SpanRecord
	spanCap int
	spanSeq uint64           // spans ever finished
	dropped *Counter         // tracer.spans_dropped, for a ring
	open    map[uint64]*Span // in-flight spans, for the live /spans view
	nextID  atomic.Uint64
	metrics *Registry
	epoch   time.Time
}

// NewTracer returns an enabled tracer with a fresh metrics registry.
func NewTracer() *Tracer {
	return &Tracer{metrics: NewRegistry(), open: make(map[uint64]*Span), epoch: time.Now()}
}

// Metrics returns the tracer's registry (nil for a nil tracer, which
// the registry API in turn treats as a no-op).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.metrics
}

// Epoch is the tracer's creation time; span start offsets in exported
// events are relative to it.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Start opens a root span. End must be called to record it.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, 0, nil)
}

// StartCtx opens a root span carrying the request identity attached to
// ctx by WithRequest, if any: the span — and every Child span under it
// — materializes request_id/tenant/session attributes when recorded.
// The nil-tracer check runs before ctx is touched, so the disabled path
// stays allocation-free.
func (t *Tracer) StartCtx(ctx context.Context, name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, 0, requestPtr(ctx))
}

// newSpan allocates a span and registers it as in-flight.
func (t *Tracer) newSpan(name string, parent uint64, req *RequestInfo) *Span {
	s := &Span{t: t, id: t.nextID.Add(1), parent: parent, name: name, start: time.Now(), req: req}
	t.mu.Lock()
	if t.open == nil { // tolerate a zero-value Tracer
		t.open = make(map[uint64]*Span)
	}
	t.open[s.id] = s
	t.mu.Unlock()
	return s
}

// DefaultSpanCapacity is the number of finished spans a tracer made
// by NewCLITracer retains.
const DefaultSpanCapacity = 16384

// newRingTracer returns a tracer that keeps only the newest capacity
// finished spans, counting overwritten ones in tracer.spans_dropped.
func newRingTracer(capacity int) *Tracer {
	t := NewTracer()
	t.spanCap = capacity
	t.dropped = t.metrics.Counter("tracer.spans_dropped")
	return t
}

// Spans returns a copy of the retained finished spans in end order
// (children before their parents, since a span is recorded when it
// ends).
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out, _ := t.spansFromLocked(0)
	return out
}

// SpansFrom returns a copy of the finished spans with sequence number
// from onward (the k-th span to end has sequence number k, from 0),
// plus the sequence number one past the last span returned: pass it
// back as from to drain incrementally. Successive calls see a
// consistent, gap-free stream — this is what the retention spiller
// polls — unless a bounded tracer overwrote spans since the last call;
// the first span returned then has sequence number next − len(spans),
// beyond from.
func (t *Tracer) SpansFrom(from int) ([]SpanRecord, int) {
	if t == nil {
		return nil, from
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spansFromLocked(from)
}

func (t *Tracer) spansFromLocked(from int) ([]SpanRecord, int) {
	end := int(t.spanSeq)
	oldest := end - len(t.spans)
	if from < oldest {
		from = oldest
	}
	if from >= end {
		return nil, end
	}
	out := make([]SpanRecord, 0, end-from)
	if t.spanCap == 0 {
		return append(out, t.spans[from:]...), end
	}
	for k := from; k < end; k++ {
		out = append(out, t.spans[k%t.spanCap])
	}
	return out, end
}

// OpenSpans returns a snapshot of the spans currently in flight, with
// Duration set to the time elapsed so far. This is what makes a live
// solve inspectable: the /spans debug route merges it with Spans() so
// a stuck MaxSMT instance shows up as a long-running open span instead
// of being invisible until it ends. Attribute maps are copied; the
// snapshot never races with the owning goroutine's SetX calls.
func (t *Tracer) OpenSpans() []SpanRecord {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	live := make([]*Span, 0, len(t.open))
	for _, s := range t.open {
		live = append(live, s)
	}
	t.mu.Unlock()
	out := make([]SpanRecord, 0, len(live))
	for _, s := range live {
		out = append(out, s.snapshot(now))
	}
	return out
}

// Span is one timed phase of the pipeline. A nil *Span is a valid
// no-op span. A Span's setters must be called from the goroutine that
// created it (create one child span per worker instead); concurrent
// *readers* — the live /spans view, the slow-solve watchdog — are safe,
// because the mutable attribute state is mutex-guarded and End takes an
// atomic snapshot. Setter calls after End are rejected, so a recorded
// SpanRecord is immutable.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time

	// req, when non-nil, is the request identity inherited from
	// StartCtx (shared by pointer down the Child chain; immutable after
	// creation, so reads need no lock). It surfaces as the
	// request_id/tenant/session attributes of every record taken from
	// this span.
	req *RequestInfo

	// mu guards attrs and ended: the owning goroutine appends
	// attributes, while live-tree readers snapshot them concurrently.
	mu    sync.Mutex
	attrs []attr
	ended bool
}

type attr struct {
	key  string
	kind uint8
	num  int64
	str  string
}

const (
	attrInt uint8 = iota
	attrStr
	attrBool
	attrDur
)

// Child opens a sub-span of s, inheriting s's request identity.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.newSpan(name, s.id, s.req)
}

// setAttr appends one attribute unless the span has already ended
// (late sets are rejected: the record taken by End is final).
func (s *Span) setAttr(a attr) {
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, a)
	}
	s.mu.Unlock()
}

// SetInt attaches an integer attribute. The typed setters exist (in
// place of one SetAttr(string, any)) so disabled-tracer callers do not
// box the value into an interface before the nil check can run.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.setAttr(attr{key: key, kind: attrInt, num: v})
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.setAttr(attr{key: key, kind: attrStr, str: v})
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	var n int64
	if v {
		n = 1
	}
	s.setAttr(attr{key: key, kind: attrBool, num: n})
}

// SetDur attaches a duration attribute (exported in microseconds).
func (s *Span) SetDur(key string, v time.Duration) {
	if s == nil {
		return
	}
	s.setAttr(attr{key: key, kind: attrDur, num: int64(v)})
}

// attrMap materializes the attribute slice, plus the request identity
// when present, as the exported map form. Request attributes are added
// first so an explicit setter call with the same key wins. Caller must
// hold s.mu (or own the span exclusively).
func attrMap(attrs []attr, req *RequestInfo) map[string]any {
	n := len(attrs)
	if req != nil {
		n += 3
	}
	if n == 0 {
		return nil
	}
	m := make(map[string]any, n)
	if req != nil {
		if req.ID != "" {
			m["request_id"] = req.ID
		}
		if req.Tenant != "" {
			m["tenant"] = req.Tenant
		}
		if req.Session != "" {
			m["session"] = req.Session
		}
	}
	for _, a := range attrs {
		switch a.kind {
		case attrInt:
			m[a.key] = a.num
		case attrStr:
			m[a.key] = a.str
		case attrBool:
			m[a.key] = a.num == 1
		case attrDur:
			m[a.key] = time.Duration(a.num).Microseconds()
		}
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

// snapshot returns the span's current state as a record; Duration is
// elapsed-so-far for an open span.
func (s *Span) snapshot(now time.Time) SpanRecord {
	s.mu.Lock()
	rec := SpanRecord{
		ID:       s.id,
		Parent:   s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: now.Sub(s.start),
		Attrs:    attrMap(s.attrs, s.req),
		Open:     !s.ended,
	}
	s.mu.Unlock()
	return rec
}

// End records the span into its tracer. Ending a span twice records it
// once; attribute setters called after End are ignored (the recorded
// attribute map is snapshotted once, so sinks and live readers never
// observe a half-written mutation).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := SpanRecord{
		ID:       s.id,
		Parent:   s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: time.Since(s.start),
		Attrs:    attrMap(s.attrs, s.req),
	}
	s.mu.Unlock()
	t := s.t
	t.mu.Lock()
	delete(t.open, s.id)
	if t.spanCap > 0 && len(t.spans) == t.spanCap {
		t.spans[t.spanSeq%uint64(t.spanCap)] = rec
		t.dropped.Add(1)
	} else {
		t.spans = append(t.spans, rec)
	}
	t.spanSeq++
	t.mu.Unlock()
}

// SpanRecord is a finished span as stored by the tracer and exported
// by the sinks (or an in-flight one, when Open is set, as returned by
// OpenSpans with elapsed-so-far Duration).
type SpanRecord struct {
	ID       uint64
	Parent   uint64 // 0 for root spans
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    map[string]any
	Open     bool
}
