package obs_test

import (
	"context"
	"sync"
	"testing"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/topology"
)

// TestLiveSpansUnderConcurrentSolve is the race test for the live span
// tree, the metrics registry and the flight recorder: each input's
// writers run concurrently while readers hammer the /spans and /metrics
// payloads, the watchdog-style OpenSpans snapshot and the recorder the
// whole time. Run under -race this pins the span locking design and
// the solver-to-registry telemetry path.
func TestLiveSpansUnderConcurrentSolve(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, tr *obs.Tracer)
	}{
		{"spans", concurrentSpans},
		{"monolithic-engine", concurrentMonolithicSolves},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.NewTracer()
			tr.SetRecorder(obs.NewRecorder(64))
			stopReaders := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 3; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stopReaders:
							return
						default:
						}
						_ = obs.SpansPayload(tr)
						_ = tr.OpenSpans()
						_ = obs.MetricsPayload(tr)
						_ = tr.Recorder().Events()
					}
				}()
			}
			tc.run(t, tr)
			close(stopReaders)
			readers.Wait()
			if got := len(tr.OpenSpans()); got != 0 {
				t.Errorf("%d spans still open", got)
			}
		})
	}
}

// concurrentSpans: four workers create, annotate and end span pairs
// and record events directly.
func concurrentSpans(t *testing.T, tr *obs.Tracer) {
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Start("solve")
				sp.SetInt("iter", int64(i))
				sp.SetStr("dest", "10.0.0.0/24")
				child := sp.Child("maxsat")
				child.SetBool("sat", i%2 == 0)
				child.End()
				sp.End()
				tr.Recorder().Record(obs.EvRestart, int64(w), int64(i))
			}
		}(w)
	}
	workers.Wait()
	if got := len(tr.Spans()); got != 4*200*2 {
		t.Errorf("recorded %d spans, want %d", got, 4*200*2)
	}
}

// concurrentMonolithicSolves: three goroutines share one monolithic
// session engine for four solves each, so the joint instance's solver
// streams progress samples and recorder events into the tracer while
// the engine serializes the solves.
func concurrentMonolithicSolves(t *testing.T, tr *obs.Tracer) {
	topo := topology.LeafSpine(3, 2, 1)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF, WithRoleFilters: true})
	ps, err := policy.Parse(`block 10.0.0.0/24 -> 10.1.0.0/24
block 10.1.0.0/24 -> 10.2.0.0/24
block 10.2.0.0/24 -> 10.0.0.0/24
`)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.MinimizeLines = true
	opts.Monolithic = true
	opts.Tracer = tr
	eng := core.NewEngine(net, topo, opts)

	const solvers, iters = 3, 4
	errs := make([]error, solvers)
	var wg sync.WaitGroup
	for i := 0; i < solvers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				res, err := eng.Solve(context.Background(), ps)
				if err == nil && res.Unsat() != nil {
					err = res.Unsat()
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent monolithic solve %d: %v", i, err)
		}
	}
	if calls := tr.Metrics().Counter("solver.calls").Value(); calls == 0 {
		t.Error("no solver calls recorded under concurrent solve")
	}
}
