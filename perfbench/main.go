// Command perfbench is AED's benchmark: three seeded workloads driven
// in one process through the program's public entry points, reporting
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one. See README.md for the workloads, the metrics and how to
// compare two sets of runs.
//
//	perfbench --workload cold_fleet --seed 1 --seconds 20 --trace 0
//	perfbench --compare parent.jsonl change.jsonl
//	perfbench --summary runs.jsonl
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// spec is workloads.json: why each workload exists, what it loads and
// bypasses, the percentile its op_tail_ms reports, and for each
// per-layer metric the end-to-end metric and workload it should move.
type spec struct {
	Workloads []struct {
		Name           string  `json:"name"`
		TailPercentile float64 `json:"tail_percentile"`
	} `json:"workloads"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec() spec {
	var s spec
	if err := json.Unmarshal(workloadsJSON, &s); err != nil {
		panic(fmt.Sprintf("workloads.json: %v", err))
	}
	return s
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

// benchWorkload is a workload with its correctness oracle.
type benchWorkload interface {
	workload
	prepareOracle(ctx context.Context) error
}

var workloads = map[string]func(ctx context.Context, seed int64) (benchWorkload, error){
	"cold_fleet": func(_ context.Context, seed int64) (benchWorkload, error) {
		return newColdFleet(seed), nil
	},
	"edit_stream": func(ctx context.Context, seed int64) (benchWorkload, error) {
		return newEditStream(ctx, seed, 12, 3)
	},
	"service_mix": func(ctx context.Context, seed int64) (benchWorkload, error) {
		return newServiceMix(ctx, seed, 10, 3)
	},
}

// provenance says how a result was produced.
type provenance struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Platform   string `json:"platform"`
	Time       string `json:"time"`
}

func getProvenance() provenance {
	p := provenance{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

// record is one run's full result, as appended to an --out file.
type record struct {
	Provenance provenance        `json:"provenance"`
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FailRatio  float64           `json:"fail_ratio"`
	FirstError string            `json:"first_error,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	TraceFile  string            `json:"trace_file,omitempty"`
}

type runConfig struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	traceFile string
}

func run(ctx context.Context, cfg runConfig) (*record, error) {
	sp := loadSpec()
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	tailPct := 0.0
	for _, w := range sp.Workloads {
		if w.Name == cfg.workload {
			tailPct = w.TailPercentile
		}
	}

	var w benchWorkload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		var err error
		if w, err = mk(ctx, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()
	if err := w.prepareOracle(ctx); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	rec := &record{
		Provenance: getProvenance(), Workload: cfg.workload, Seed: cfg.seed,
		Seconds: cfg.seconds, Trace: cfg.trace, Metrics: map[string]metric{},
	}
	budget := time.Duration(cfg.seconds) * time.Second
	var phases []*phase
	if !cfg.trace {
		ph := measure(ctx, w, budget, false)
		rec.Metrics = endToEnd(ph, setups, tailPct, retainedHeapMB())
		phases = append(phases, ph)
	} else {
		plain := measure(ctx, w, budget/2, false)
		traced := measure(ctx, w, budget/2, true)
		units := map[string]string{}
		for _, m := range sp.PerLayer {
			units[m.Name] = m.Unit
		}
		for name, v := range perLayer(plain, traced) {
			rec.Metrics[name] = metric{Value: v, Unit: units[name], summary: summarize([]float64{v})}
		}
		phases = append(phases, plain, traced)
		if cfg.traceFile != "" {
			if err := writeTrace(cfg.traceFile, traced.tr); err != nil {
				return nil, err
			}
			rec.TraceFile = cfg.traceFile
		}
	}
	for _, ph := range phases {
		rec.Attempted += ph.attempted
		rec.Failed += ph.failed
		if ph.firstErr != nil && rec.FirstError == "" {
			rec.FirstError = ph.firstErr.Error()
		}
	}
	rec.FailRatio = float64(rec.Failed) / float64(max(rec.Attempted, 1))
	rec.Correct = rec.Attempted > 0 && rec.Failed == 0
	return rec, nil
}

// printResult writes the result line the benchmark contract asks for:
// one JSON object, last on standard output.
func printResult(w io.Writer, rec *record) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for name, m := range rec.Metrics {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// report prints a human-readable account of the run to stderr.
func report(rec *record) {
	p := rec.Provenance
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d trace=%v commit=%s dirty=%v %s GOMAXPROCS=%d NumCPU=%d\n",
		rec.Workload, rec.Seed, rec.Trace, p.Commit, p.Dirty, p.GoVersion, p.GOMAXPROCS, p.NumCPU)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-26s %14.4f %-6s", n, m.Value, m.Unit)
		if m.Samples > 1 {
			fmt.Fprintf(os.Stderr, " n=%d median=%.4f q1=%.4f q3=%.4f", m.Samples, m.Median, m.Q1, m.Q3)
		}
		if m.Percentile > 0 {
			fmt.Fprintf(os.Stderr, " p%g with %.1f samples beyond", m.Percentile, m.BeyondSamples)
			if m.BeyondSamples < 10 {
				fmt.Fprintf(os.Stderr, " (fewer than 10: the tail is unresolved)")
			}
		}
		fmt.Fprintln(os.Stderr)
	}
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d", rec.Attempted, rec.Failed)
	if rec.FirstError != "" {
		fmt.Fprintf(os.Stderr, " first error: %s", rec.FirstError)
	}
	fmt.Fprintln(os.Stderr)
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr() error {
	cfg := runConfig{}
	flag.StringVar(&cfg.workload, "workload", "", "workload: cold_fleet, edit_stream or service_mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run instead of the end-to-end ones")
	flag.StringVar(&cfg.traceFile, "trace-out", "", "where the traced run writes its spans as JSONL "+
		"(default .bench_build/traces/<workload>-seed<seed>.jsonl; \"-\" to skip)")
	out := flag.String("out", "", "append the run's full record (provenance, samples, quartiles) to this JSONL file")
	compare := flag.Bool("compare", false, "compare two record files: perfbench --compare A.jsonl B.jsonl")
	summaryMode := flag.Bool("summary", false, "summarize record files: perfbench --summary runs.jsonl")
	bounds := flag.String("bounds", "BENCHMARK.json", "BENCHMARK.json holding the end-to-end bounds")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			return errors.New("--compare takes two record files")
		}
		return compareFiles(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1))
	case *summaryMode:
		if flag.NArg() == 0 {
			return errors.New("--summary takes record files")
		}
		return summarizeFiles(os.Stdout, *bounds, flag.Args())
	}

	if cfg.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	cfg.trace = *traceFlag != 0
	switch {
	case !cfg.trace:
		cfg.traceFile = ""
	case cfg.traceFile == "":
		cfg.traceFile = fmt.Sprintf(".bench_build/traces/%s-seed%d.jsonl", cfg.workload, cfg.seed)
	case cfg.traceFile == "-":
		cfg.traceFile = ""
	}
	rec, err := run(context.Background(), cfg)
	if err != nil {
		return err
	}
	report(rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			return err
		}
	}
	return printResult(os.Stdout, rec)
}
