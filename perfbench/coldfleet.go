package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/encode"
	"github.com/aed-net/aed/internal/objective"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/smt"
)

// coldFleet runs one-shot synthesis from config text over the fleet
// corpus. A batch is one fleet draw plus Zoo-30 in a seeded order; the
// batches cycle through the draws.
type coldFleet struct {
	items   []problem
	want    []expect
	batches [][]int
	next    int
	order   *rand.Rand
}

func newColdFleet(seed int64) *coldFleet {
	w := &coldFleet{items: coldFleetInputs(seed), order: rand.New(rand.NewSource(seed + 1))}
	zoo := len(w.items) - 1
	per := zoo / fleetDraws
	for d := 0; d < fleetDraws; d++ {
		var b []int
		for i := d * per; i < (d+1)*per; i++ {
			b = append(b, i)
		}
		w.batches = append(w.batches, append(b, zoo))
	}
	return w
}

func (w *coldFleet) clients() int { return 1 }
func (w *coldFleet) close()       {}

func (w *coldFleet) prepareOracle(ctx context.Context) error {
	w.want = make([]expect, len(w.items))
	for i, it := range w.items {
		var err error
		if w.want[i], err = problemOracle(ctx, it); err != nil {
			return err
		}
	}
	return nil
}

func (w *coldFleet) runBatch(ctx context.Context, _ int, ph *phase) {
	b := w.batches[w.next%len(w.batches)]
	w.next++
	for _, k := range w.order.Perm(len(b)) {
		i := b[k]
		if ph.traced() {
			w.tracedOp(ctx, i, ph)
		} else {
			w.plainOp(ctx, i, ph)
		}
	}
}

// plainOp is what aed does: parse the text inputs, synthesize.
func (w *coldFleet) plainOp(ctx context.Context, i int, ph *phase) {
	start := time.Now()
	p, err := w.items[i].parse()
	var res *core.Result
	if err == nil {
		res, err = core.SynthesizeContext(ctx, p.net, p.topo, p.ps, core.Options{Objectives: p.objs})
	}
	d := time.Since(start)
	if err == nil {
		err = checkResult(w.want[i], res)
		recordResult(ph, res)
	}
	ph.op(d, err)
}

// tracedOp drives the split pipeline of core.SynthesizeContext through
// the layers' public calls, one span per call, with the same
// per-destination parallelism (GOMAXPROCS workers, largest policy group
// first). It must reach the oracle's verdict and cost like plainOp.
func (w *coldFleet) tracedOp(ctx context.Context, i int, ph *phase) {
	start := time.Now()
	root := ph.tr.Start(rootSpan)
	defer root.End()
	fail := func(err error) { ph.op(time.Since(start), fmt.Errorf("%s: %w", w.items[i].Name, err)) }

	var p parsed
	var err error
	timed(root, "config.parse", func() { p, err = w.items[i].parse() })
	if err != nil {
		fail(err)
		return
	}
	var ps []policy.Policy
	var groups map[prefix.Prefix][]policy.Policy
	var dests []prefix.Prefix
	timed(root, "policy.group", func() {
		ps = policy.SubdividePolicies(policy.Dedup(p.ps))
		groups = policy.GroupByDestination(ps)
		for d := range groups {
			dests = append(dests, d)
		}
		prefix.Sort(dests)
	})

	results := make([]*encode.Result, len(dests))
	errs := make([]error, len(dests))
	dsp := root.Child("destinations")
	largestFirst(len(dests), func(k int) int { return len(groups[dests[k]]) }, func(k int) {
		d := dests[k]
		var e *encode.Encoder
		timed(dsp, "encode.build", func() {
			e = encode.New(p.net, p.topo, d, encode.Options{})
			if errs[k] = e.EncodePolicies(groups[d]); errs[k] != nil {
				return
			}
			tree := config.Tree(p.net)
			encode.AugmentTree(tree, e.Deltas())
			e.AddObjectives(objective.InstantiateAll(p.objs, tree))
		})
		if errs[k] != nil {
			return
		}
		hits, misses := e.Ctx.InternStats()
		ph.add("intern_hits", float64(hits))
		ph.add("intern_lookups", float64(hits+misses))
		timed(dsp, "smt.maxsat", func() { results[k] = e.SolveContext(ctx, smt.LinearDescent) })
	})
	dsp.End()

	sat, cost := true, 0
	var edits []encode.Edit
	for k, r := range results {
		if errs[k] != nil {
			fail(errs[k])
			return
		}
		if r.Err != nil {
			fail(r.Err)
			return
		}
		sat = sat && r.Sat
		cost += r.ViolatedWeight
		edits = append(edits, r.Edits...)
	}
	violations := 0
	if sat {
		var updated *config.Network
		timed(root, "encode.apply", func() { updated = encode.Apply(p.net, edits) })
		_, violations = diffValidate(root, ph, p.net, updated, p.topo, ps)
	}
	ph.op(time.Since(start), checkOutcome(w.want[i], sat, cost, violations))
}

// largestFirst runs f(0..n-1) on GOMAXPROCS goroutines, dispatching the
// largest size(k) first: the scheduling core uses for one-shot solves.
func largestFirst(n int, size func(int) int, f func(int)) {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return size(order[a]) > size(order[b]) })
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
				f(order[k])
			}
		}()
	}
	wg.Wait()
}
