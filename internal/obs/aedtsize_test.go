package obs_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/topology"
)

// aedtSizeFloor is the compression AEDT must keep over JSONL on the
// stream of TestAEDTSizeFloor (measured: about 8.9×).
const aedtSizeFloor = 5

// TestAEDTSizeFloor holds the binary telemetry format to its reason to
// exist: on a realistic mixed stream — the span tree and metrics of one
// traced synthesis followed by 20k flight-recorder events with the
// kind and label mix a -watch session spills — the .aedt encoding is
// at most 1/aedtSizeFloor of the .jsonl one. The recorder events, over
// nine tenths of the bytes, are fixed by a seeded generator; the
// trace's timing fields move its size by a few bytes between runs, far
// inside the margin.
func TestAEDTSizeFloor(t *testing.T) {
	events := traceEvents(t)
	events = append(events, recorderEvents(20_000)...)

	var jsonl, aedt bytes.Buffer
	if err := obs.WriteEventsTo(&jsonl, "stream.jsonl", events); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteEventsTo(&aedt, "stream.aedt", events); err != nil {
		t.Fatal(err)
	}
	ratio := float64(jsonl.Len()) / float64(aedt.Len())
	t.Logf("%d events: jsonl %d B, aedt %d B (%.1f× smaller)", len(events), jsonl.Len(), aedt.Len(), ratio)
	if aedt.Len()*aedtSizeFloor > jsonl.Len() {
		t.Errorf("aedt %d B is more than jsonl %d B / %d (ratio %.2f×)",
			aedt.Len(), jsonl.Len(), aedtSizeFloor, ratio)
	}
}

// traceEvents runs one sequential synthesis on a 4×2 leaf-spine fabric
// under a tracer and returns its exported spans and metrics.
func traceEvents(t *testing.T) []obs.Event {
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
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, opts.Tracer); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return events
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
