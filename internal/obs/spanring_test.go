package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestCLITracerSpanRing pushes 100 k spans through a CLI tracer: the
// retained window stays at the capacity and holds the newest spans, the
// drop counter equals the overflow, and a SpansFrom cursor carried
// across the wrap sees no span twice and reports the gap it skipped.
func TestCLITracerSpanRing(t *testing.T) {
	const total = 100_000
	tr := NewCLITracer()
	seen := make(map[uint64]bool)
	cursor, gap := 0, 0
	drain := func() {
		spans, next := tr.SpansFrom(cursor)
		if first := next - len(spans); first > cursor {
			gap += first - cursor
		}
		for _, sp := range spans {
			if seen[sp.ID] {
				t.Fatalf("span %d drained twice", sp.ID)
			}
			seen[sp.ID] = true
		}
		cursor = next
	}
	for i := 1; i <= total; i++ {
		tr.Start("op").End()
		// Drain often at first, then let the ring lap the cursor once.
		if i%1000 == 0 && (i < 30_000 || i > 70_000) {
			drain()
		}
	}
	drain()

	spans := tr.Spans()
	if len(spans) != DefaultSpanCapacity {
		t.Fatalf("Spans() holds %d, want %d", len(spans), DefaultSpanCapacity)
	}
	for i, sp := range spans {
		if want := uint64(total - DefaultSpanCapacity + 1 + i); sp.ID != want {
			t.Fatalf("Spans()[%d].ID = %d, want %d (newest spans, in end order)", i, sp.ID, want)
		}
	}
	if got, want := tr.Metrics().Snapshot().Counters["tracer.spans_dropped"], int64(total-DefaultSpanCapacity); got != want {
		t.Fatalf("tracer.spans_dropped = %d, want %d", got, want)
	}
	// The cursor paused from 29 000 to 71 000: all but the newest
	// DefaultSpanCapacity of the spans in between were overwritten
	// before a drain could see them.
	if want := 71_000 - 29_000 - DefaultSpanCapacity; gap != want {
		t.Fatalf("gap = %d, want %d", gap, want)
	}
	if len(seen)+gap != total {
		t.Fatalf("drained %d + gap %d != %d spans", len(seen), gap, total)
	}
	var b bytes.Buffer
	WriteSummary(&b, tr)
	if !strings.Contains(b.String(), "tracer.spans_dropped") {
		t.Fatal("summary does not report tracer.spans_dropped")
	}
}

// TestNewTracerUnbounded: a library tracer keeps every span.
func TestNewTracerUnbounded(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < DefaultSpanCapacity+10; i++ {
		tr.Start("op").End()
	}
	if n := len(tr.Spans()); n != DefaultSpanCapacity+10 {
		t.Fatalf("Spans() holds %d, want all %d", n, DefaultSpanCapacity+10)
	}
}

// TestRetentionCountsLappedSpans: a retention drain the span ring has
// lapped adds the skipped spans to retention.lost.
func TestRetentionCountsLappedSpans(t *testing.T) {
	tr := newRingTracer(8)
	ret := manualRetention(t, tr, t.TempDir(), 1<<20, 1<<22)
	defer ret.Close()
	for i := 0; i < 20; i++ {
		tr.Start("op").End()
	}
	if err := ret.Flush(); err != nil {
		t.Fatal(err)
	}
	c := tr.Metrics().Snapshot().Counters
	if c["retention.lost"] != 12 || c["retention.spans"] != 8 {
		t.Fatalf("retention.lost = %d, retention.spans = %d; want 12 and 8", c["retention.lost"], c["retention.spans"])
	}
}
