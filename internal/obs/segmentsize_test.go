package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/topology"
)

// segmentSizeFloor is the compression a retention segment must keep
// over plain JSONL of the same events on the stream of
// TestSegmentSizeFloor.
const segmentSizeFloor = 5

// TestSegmentSizeFloor holds the retention ring's gzip framing to a
// size floor over plain JSONL. The stream is the span tree of one
// traced synthesis followed by 20k flight-recorder events with the kind
// and label mix a -watch session spills (retention spills no metrics),
// written through a manual Retention with a Flush, and so a new gzip
// member, every 1,000 events. The segment must be at most
// 1/segmentSizeFloor of the plain JSONL of the events it decodes to.
// Measured: 20,017 events, 2,360,250 B of JSONL in a 357,309 B
// segment, 6.61× (Go 1.24, gzip.DefaultCompression; the ratio does not
// depend on the machine). The recorder events, over nine tenths of the
// bytes, are fixed by a seeded generator; the trace's timing fields
// move its size by a few bytes between runs, far inside the margin.
func TestSegmentSizeFloor(t *testing.T) {
	tr := tracedSynthesis(t)
	rec := obs.NewRecorder(1000)
	tr.SetRecorder(rec)
	ret, err := obs.NewRetention(tr, obs.RetentionOptions{Dir: t.TempDir(), FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ret.Flush(); err != nil {
		t.Fatal(err)
	}
	want := recorderEvents(20_000)
	for i, ev := range want {
		rec.RecordAt(ev)
		if (i+1)%1000 == 0 {
			if err := ret.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ret.Close(); err != nil {
		t.Fatal(err)
	}
	segs := ret.Segments()
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want one", segs)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(bytes.NewReader(seg))
	if err != nil {
		t.Fatal(err)
	}
	spans := len(tr.Spans())
	if len(events) != spans+len(want) || !reflect.DeepEqual(events[spans:], want) {
		t.Fatalf("segment decodes to %d events, want %d spans then the %d recorder events unchanged",
			len(events), spans, len(want))
	}

	var jsonl bytes.Buffer
	enc := json.NewEncoder(&jsonl)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	ratio := float64(jsonl.Len()) / float64(len(seg))
	t.Logf("%d events: jsonl %d B, segment %d B (%.2f× smaller)", len(events), jsonl.Len(), len(seg), ratio)
	if len(seg)*segmentSizeFloor > jsonl.Len() {
		t.Errorf("segment %d B is more than jsonl %d B / %d (ratio %.2f×)",
			len(seg), jsonl.Len(), segmentSizeFloor, ratio)
	}
}

// tracedSynthesis runs one sequential synthesis on a 4×2 leaf-spine
// fabric under a tracer and returns the tracer.
func tracedSynthesis(t *testing.T) *obs.Tracer {
	t.Helper()
	topo := topology.LeafSpine(4, 2, 1)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF, WithRoleFilters: true})
	ps, err := policy.Parse("block 10.1.0.0/24 -> 10.0.0.0/24\nblock 10.2.0.0/24 -> 10.3.0.0/24\n")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Sequential = true
	opts.SkipValidation = true
	opts.MinimizeLines = true
	opts.Tracer = obs.NewTracer()
	if _, err := core.SynthesizeContext(context.Background(), net, topo, ps, opts); err != nil {
		t.Fatal(err)
	}
	return opts.Tracer
}

// recorderEvents generates n flight-recorder events from a fixed seed:
// seven solver and session kinds, 64 destination labels, 0–5 ms apart.
func recorderEvents(n int) []obs.Event {
	kinds := []string{"restart", "reduce_db", "bound_tighten", "cache_hit", "cache_miss", "solve_start", "solve_end"}
	labels := make([]string, 64)
	for i := range labels {
		labels[i] = fmt.Sprintf("10.%d.%d.0/24", i/8, i%8)
	}
	now := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC).UnixMicro()
	state := uint64(0x9e3779b97f4a7c15)
	events := make([]obs.Event, n)
	for i := range events {
		state = state*6364136223846793005 + 1442695040888963407
		now += int64(state % 5000)
		events[i] = obs.Event{
			Type:   "recorder",
			Name:   kinds[int(state>>8)%len(kinds)],
			Seq:    uint64(i),
			TimeUS: now,
			Label:  labels[int(state>>16)%len(labels)],
			A:      int64(state % 1000),
			B:      int64(state>>32) % 100_000,
		}
	}
	return events
}
