// Command aedbench regenerates the paper's evaluation tables and
// figures (§9) on the synthetic stand-in datasets described in
// DESIGN.md.
//
// Usage:
//
//	aedbench -experiment fig9|fig10|fig11a|fig11b|fig12|fig13|fig14|boolopt|pruning|strategies|fig3|all
//	         [-scale quick|full] [-metrics-out FILE] [-debug-addr ADDR]
//
// -debug-addr serves the live debug endpoint (/metrics, /spans,
// /recorder, /debug/pprof/) while the experiments run — useful for
// profiling a long full-scale run without waiting for the artifact.
//
// Each experiment prints the rows/series the corresponding paper
// figure reports; EXPERIMENTS.md records the expected shapes.
//
// -metrics-out FILE writes a JSONL metrics artifact next to the figure
// output: one span per experiment (wall time), every synthesis phase
// span recorded via the process-wide tracer, and the final solver
// metrics registry (decisions, conflicts, restarts, per-call solve
// latencies). The format is the obs package's event stream; see
// docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/aed-net/aed/internal/bench"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/obs"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which figure to regenerate")
		scaleFlag  = flag.String("scale", "quick", "quick or full")
		metricsOut = flag.String("metrics-out", "", "write a JSONL metrics artifact (spans + solver metrics) to FILE")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /spans, /recorder and /debug/pprof on this address (e.g. :6060)")
	)
	flag.Parse()

	scale := bench.Quick
	if *scaleFlag == "full" {
		scale = bench.Full
	} else if *scaleFlag != "quick" {
		fmt.Fprintln(os.Stderr, "aedbench: -scale must be quick or full")
		os.Exit(2)
	}

	var tracer *obs.Tracer
	if *metricsOut != "" || *debugAddr != "" {
		tracer = obs.NewCLITracer()
		// The benchmark drivers call core.SynthesizeContext internally,
		// so the tracer is installed process-wide instead of being
		// threaded through every workload helper.
		core.SetTracer(tracer)
	}
	if *debugAddr != "" {
		closeDebug, err := obs.ServeDebugCLI("aedbench", *debugAddr, tracer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aedbench:", err)
			os.Exit(1)
		}
		defer closeDebug()
	}
	writeMetrics := func() {
		if tracer == nil || *metricsOut == "" {
			return
		}
		f, err := os.Create(*metricsOut)
		if err == nil {
			err = obs.WriteJSONL(f, tracer)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "aedbench:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics artifact written to %s\n", *metricsOut)
	}

	runners := map[string]func(){
		"fig3":       func() { bench.Fig3(os.Stdout) },
		"fig9":       func() { bench.Fig9(os.Stdout, scale) },
		"fig10":      func() { bench.Fig10(os.Stdout, scale) },
		"fig11a":     func() { bench.Fig11a(os.Stdout, scale) },
		"fig11b":     func() { bench.Fig11b(os.Stdout, scale) },
		"fig12":      func() { bench.Fig12(os.Stdout, scale) },
		"fig13":      func() { bench.Fig13(os.Stdout, scale) },
		"fig14":      func() { bench.Fig14(os.Stdout, scale) },
		"boolopt":    func() { bench.BoolRank(os.Stdout, scale) },
		"pruning":    func() { bench.Pruning(os.Stdout, scale) },
		"strategies": func() { bench.MaxSATStrategies(os.Stdout, scale) },
	}
	order := []string{"fig3", "fig9", "fig10", "fig11a", "fig11b", "fig12", "fig13", "fig14", "boolopt", "pruning", "strategies"}

	runOne := func(name string, run func()) {
		sp := tracer.Start("experiment")
		sp.SetStr("name", name)
		run()
		sp.End()
	}

	if *experiment == "all" {
		for _, name := range order {
			fmt.Printf("==== %s ====\n", name)
			start := time.Now()
			runOne(name, runners[name])
			fmt.Printf("(%s finished in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		}
		writeMetrics()
		return
	}
	run, ok := runners[*experiment]
	if !ok {
		fmt.Fprintf(os.Stderr, "aedbench: unknown experiment %q (want one of %v)\n", *experiment, order)
		os.Exit(2)
	}
	runOne(*experiment, run)
	writeMetrics()
}
