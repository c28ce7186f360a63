package obs

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// manualRetention opens a retention ring with no background goroutine.
func manualRetention(t *testing.T, tr *Tracer, dir string, segBytes, maxBytes int64) *Retention {
	t.Helper()
	ret, err := NewRetention(tr, RetentionOptions{
		Dir: dir, SegmentBytes: segBytes, MaxBytes: maxBytes, FlushEvery: -1,
	})
	if err != nil {
		t.Fatalf("NewRetention: %v", err)
	}
	return ret
}

// readSegment decodes one retention segment, failing t if it does not.
func readSegment(t *testing.T, path string) []Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := ReadEvents(f)
	if err != nil {
		t.Fatalf("segment %s does not decode: %v", filepath.Base(path), err)
	}
	return events
}

func segmentSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func TestRetentionSpillsSpansAndEvents(t *testing.T) {
	dir := t.TempDir()
	tr := NewTracer()
	rec := NewRecorder(64)
	tr.SetRecorder(rec)
	ret := manualRetention(t, tr, dir, 1<<20, 1<<22)

	sp := tr.Start("solve")
	sp.SetInt("conflicts", 9)
	sp.End()
	rec.RecordLabeled(EvCacheMiss, "10.1.0.0/16", 1, 2)
	rec.Record(EvSolveEnd, 1, 33)

	if err := ret.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := ret.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	segs := ret.Segments()
	if len(segs) != 1 {
		t.Fatalf("got %d segments, want 1: %v", len(segs), segs)
	}
	events := readSegment(t, segs[0])
	var spans, recs int
	for _, ev := range events {
		switch ev.Type {
		case "span":
			spans++
			if ev.Name != "solve" {
				t.Errorf("span name %q", ev.Name)
			}
		case "recorder":
			recs++
		}
	}
	if spans != 1 || recs != 2 {
		t.Fatalf("segment carries %d spans, %d recorder events; want 1, 2", spans, recs)
	}

	snap := tr.Metrics().Snapshot()
	if snap.Counters["retention.spans"] != 1 || snap.Counters["retention.events"] != 2 {
		t.Errorf("spill counters wrong: %v", snap.Counters)
	}
	if snap.Gauges["retention.bytes"].Value <= 0 {
		t.Error("retention.bytes gauge not published")
	}
}

func TestRetentionIncrementalDrain(t *testing.T) {
	dir := t.TempDir()
	tr := NewTracer()
	rec := NewRecorder(64)
	tr.SetRecorder(rec)
	ret := manualRetention(t, tr, dir, 1<<20, 1<<22)

	rec.Record(EvRestart, 1, 0)
	if err := ret.Flush(); err != nil {
		t.Fatal(err)
	}
	// The open segment decodes up to its last flush, and a flush with
	// nothing new writes nothing.
	seg := ret.Segments()[0]
	if events := readSegment(t, seg); len(events) != 1 {
		t.Fatalf("open segment holds %d events after one flush, want 1", len(events))
	}
	size := segmentSize(t, seg)
	if err := ret.Flush(); err != nil {
		t.Fatal(err)
	}
	if grown := segmentSize(t, seg); grown != size {
		t.Errorf("empty flush grew the segment from %d to %d bytes", size, grown)
	}
	rec.Record(EvRestart, 2, 0)
	if err := ret.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ret.Close(); err != nil {
		t.Fatal(err)
	}

	events := readSegment(t, seg)
	if len(events) != 2 {
		t.Fatalf("spilled %d events, want 2 (no duplicates across flushes): %+v", len(events), events)
	}
	if events[0].Seq != 0 || events[1].Seq != 1 {
		t.Errorf("event seqs %d,%d", events[0].Seq, events[1].Seq)
	}
}

// TestRetentionKeepsRequestIDs pins that a spilled recorder event
// keeps the request it is attributed to, so `aedtrace -request` and
// the recorder view see the same attribution in a segment as in a
// WriteJSONL trace.
func TestRetentionKeepsRequestIDs(t *testing.T) {
	tr := NewTracer()
	rec := NewRecorder(8)
	tr.SetRecorder(rec)
	ret := manualRetention(t, tr, t.TempDir(), 1<<20, 1<<22)
	rec.RecordRequest(EvSolveEnd, "10.0.0.0/24", "req-7", 1, 5)
	rec.Record(EvRestart, 1, 0)
	if err := ret.Close(); err != nil {
		t.Fatal(err)
	}
	events := readSegment(t, ret.Segments()[0])
	if len(events) != 2 || events[0].Req != "req-7" || events[1].Req != "" {
		t.Fatalf("spilled recorder events = %+v, want req-7 then unattributed", events)
	}
}

func TestRetentionRotatesAndCaps(t *testing.T) {
	dir := t.TempDir()
	tr := NewTracer()
	rec := NewRecorder(4096)
	tr.SetRecorder(rec)
	// Tiny segments force rotation; the cap keeps only ~2 of them.
	ret := manualRetention(t, tr, dir, 2048, 5000)

	for round := 0; round < 20; round++ {
		for i := 0; i < 200; i++ {
			rec.RecordLabeled(EvSolveEnd, "10.2.3.0/24", int64(i), 1)
		}
		if err := ret.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ret.Close(); err != nil {
		t.Fatal(err)
	}

	snap := tr.Metrics().Snapshot()
	if snap.Counters["retention.rotations"] == 0 {
		t.Error("no rotations despite tiny segment size")
	}
	if snap.Counters["retention.segments_deleted"] == 0 {
		t.Error("no segments deleted despite tiny cap")
	}

	var total int64
	files, _ := filepath.Glob(filepath.Join(dir, "aed-*.jsonl.gz"))
	for _, f := range files {
		total += segmentSize(t, f)
		readSegment(t, f)
	}
	// The cap is enforced against closed segments; the final segment can
	// carry up to SegmentBytes past it.
	if total > 5000+2048+1024 {
		t.Errorf("on-disk footprint %d exceeds cap by more than one segment", total)
	}
}

func TestRetentionAdoptsExistingSegments(t *testing.T) {
	dir := t.TempDir()
	// A segment of the retired binary format is neither adopted nor
	// deleted.
	stale := filepath.Join(dir, "aed-000007.aedt")
	if err := os.WriteFile(stale, []byte("AEDT"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	ret := manualRetention(t, tr, dir, 1<<20, 1<<22)
	if err := ret.Close(); err != nil {
		t.Fatal(err)
	}
	first := ret.Segments()
	if len(first) != 1 || filepath.Base(first[0]) != "aed-000000.jsonl.gz" {
		t.Fatalf("first run segments: %v", first)
	}

	tr2 := NewTracer()
	ret2 := manualRetention(t, tr2, dir, 1<<20, 1<<22)
	if err := ret2.Close(); err != nil {
		t.Fatal(err)
	}
	segs := ret2.Segments()
	if len(segs) != 2 || filepath.Base(segs[1]) != "aed-000001.jsonl.gz" {
		t.Fatalf("second run must continue numbering after adopted segments: %v", segs)
	}
	if _, err := os.Stat(stale); err != nil {
		t.Errorf("stale .aedt file touched: %v", err)
	}
}

func TestRetentionLostEvents(t *testing.T) {
	dir := t.TempDir()
	tr := NewTracer()
	rec := NewRecorder(4) // tiny ring: events vanish between flushes
	tr.SetRecorder(rec)
	ret := manualRetention(t, tr, dir, 1<<20, 1<<22)

	for i := 0; i < 10; i++ {
		rec.Record(EvRestart, int64(i), 0)
	}
	if err := ret.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ret.Close(); err != nil {
		t.Fatal(err)
	}
	if lost := tr.Metrics().Snapshot().Counters["retention.lost"]; lost != 6 {
		t.Errorf("retention.lost = %d, want 6 (10 recorded, ring of 4)", lost)
	}
}

func TestRetentionBackgroundSpiller(t *testing.T) {
	dir := t.TempDir()
	tr := NewTracer()
	rec := NewRecorder(64)
	tr.SetRecorder(rec)
	ret, err := NewRetention(tr, RetentionOptions{Dir: dir, FlushEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rec.Record(EvRestart, 1, 2)
	deadline := time.Now().Add(2 * time.Second)
	for tr.Metrics().Snapshot().Counters["retention.events"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background spiller never drained the ring")
		}
		time.Sleep(time.Millisecond)
	}
	if err := ret.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ret.Close(); err != nil {
		t.Fatalf("second Close must be a no-op: %v", err)
	}
}
