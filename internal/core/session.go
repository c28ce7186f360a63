package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/encode"
	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/topology"
)

// Engine is an incremental synthesis session (exported as aed.Session):
// it holds a parsed network and topology and, across successive Solve
// calls, re-solves only the per-destination instances whose inputs
// changed. Each destination unit — its policy group, the relevant
// configuration subtree, the objectives, and the encoding options — is
// fingerprinted (see cache.go), and a dirty destination is re-solved
// through a three-tier ladder:
//
//	tier 1 — fingerprint identical: reuse the cached encode.Result,
//	         zero solver work;
//	tier 2 — the shared inputs are unchanged, there are no objectives,
//	         router configuration moved only in volatile attributes,
//	         and the live instance has encoded every policy of the
//	         destination's group (encode.Retarget): flip the live
//	         instance's retractable bindings, retract the policies that
//	         left the group, reassert the ones that came back, and
//	         re-run the search on the warm solver, keeping its learned
//	         clauses and heuristic state. Under an unchanged policy set
//	         the instance is reported Rebound, otherwise Retargeted;
//	tier 3 — anything else, a policy new to the destination included:
//	         re-encode and solve from scratch. A kept instance encodes
//	         its whole group retractably, so its later removals and
//	         re-additions are tier 2 again.
//
// So the operator loop of §9 (edit a line or toggle a policy, re-run,
// repeat) pays for most edits an assumption-based re-solve, not a
// rebuild.
//
// Split-mode instances are independent by construction (deltas that
// could affect other destinations' traffic are suppressed), which is
// what makes merging cached and fresh edits sound.
//
// An Engine is safe for concurrent use; Solve calls are serialized.
type Engine struct {
	mu   sync.Mutex
	net  *config.Network
	topo *topology.Topology
	opts Options

	cache map[prefix.Prefix]*cacheEntry
}

// cacheEntry is one destination's cached solve, including — when the
// session can rebind (see keepsLive) — the live encoder whose SMT
// context is kept warm for tier-2 re-solves, parked (Encoder.Park) so it
// holds the solver and bindings but not the formula DAG.
type cacheEntry struct {
	fp       uint64
	shared   uint64 // sharedFingerprint component of fp
	res      *encode.Result
	conflict []policy.Policy // Explain output for a cached unsat entry
	enc      *encode.Encoder // parked live instance; nil when none is kept
	size     encSize         // encoded size, reserved by the next re-encode
}

// NewEngine starts an incremental session over net and topo. The
// options apply to every Solve call; the zero value is the paper
// default, as with SynthesizeContext. Monolithic mode is not
// destination-cacheable — a monolithic Engine solves from scratch each
// call (every instance counts as a miss).
func NewEngine(net *config.Network, topo *topology.Topology, opts Options) *Engine {
	return &Engine{
		net:   net,
		topo:  topo,
		opts:  opts,
		cache: make(map[prefix.Prefix]*cacheEntry),
	}
}

// Network returns the session's current configuration snapshot.
func (s *Engine) Network() *config.Network {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.net
}

// SetNetwork replaces the session's configuration snapshot — e.g. to
// adopt a previous Result.Updated, or after the operator edited a
// device. Cached results stay; the fingerprints decide per destination
// whether the change made them stale.
func (s *Engine) SetNetwork(net *config.Network) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.net = net
}

// Invalidate drops every cached per-destination result; the next Solve
// runs fully cold.
func (s *Engine) Invalidate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = make(map[prefix.Prefix]*cacheEntry)
}

// Solve synthesizes updates for the session's network against ps,
// reusing cached per-destination results where the fingerprint proves
// the instance's inputs are unchanged, and re-solving live instances
// where the edit allows it (see the tier ladder on Engine). Cache
// activity is exported as session.cache.hits / .misses /
// .invalidations counters, tier-2 activity as session.rebind.resolves /
// .ineligible / .policies_added / .policies_retracted, and per-call
// latency lands in session.solve.warm_ms or .cold_ms depending on
// whether any hit occurred.
func (s *Engine) Solve(ctx context.Context, ps []policy.Policy) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.opts.Monolithic {
		return SynthesizeContext(ctx, s.net, s.topo, ps, s.opts)
	}

	start := time.Now()
	tr := s.opts.tracer()
	root := tr.StartCtx(ctx, "session.solve")
	defer root.End()
	ri, _ := obs.RequestFrom(ctx)

	gsp := root.Child("group")
	ps, groups, dests := groupDests(ps)
	gsp.SetInt("policies", int64(len(ps)))
	gsp.SetInt("destinations", int64(len(dests)))
	gsp.End()

	// Fingerprint every destination unit and split clean from dirty.
	// Cache classification is also streamed into the flight recorder so
	// a live /recorder drain shows which destinations stayed warm.
	fsp := root.Child("fingerprint")
	rec := tr.Recorder()
	shared := sharedFingerprint(s.net, s.topo, s.opts)
	routers := routerDigests(s.net)
	fps := make([]uint64, len(dests))
	results := make([]*encode.Result, len(dests))
	cached := make([]bool, len(dests))
	conflicts := make([][]policy.Policy, len(dests))
	liveable := make([]*cacheEntry, len(dests))
	encs := make([]*encode.Encoder, len(dests))
	sizes := make([]encSize, len(dests))
	rebound := make([]bool, len(dests))
	retargeted := make([]bool, len(dests))
	var dirty []int
	hits, invalidations := 0, 0
	for i, d := range dests {
		fps[i] = destFingerprint(shared, s.net, routers, d, groups[d], s.opts)
		if e, ok := s.cache[d]; ok {
			if e.fp == fps[i] {
				results[i] = e.res
				conflicts[i] = e.conflict
				cached[i] = true
				hits++
				rec.RecordRequest(obs.EvCacheHit, d.String(), ri.ID, int64(fps[i]), 0)
				continue
			}
			// Dirty with a live instance: when the shared inputs are
			// untouched, only router configuration or the policy group
			// moved — a tier-2 candidate, which encode.Retarget vets.
			// (Sessions with objectives keep no live instance; see
			// keepsLive.)
			if e.enc != nil && e.shared == shared {
				liveable[i] = e
			}
			invalidations++
			rec.RecordRequest(obs.EvCacheInvalidate, d.String(), ri.ID, int64(fps[i]), int64(e.fp))
		}
		rec.RecordRequest(obs.EvCacheMiss, d.String(), ri.ID, int64(fps[i]), 0)
		dirty = append(dirty, i)
	}
	fsp.SetInt("hits", int64(hits))
	fsp.SetInt("misses", int64(len(dirty)))
	fsp.End()

	// Re-solve only the dirty destinations: by rebinding the live
	// instance when the configuration delta allows it, from scratch
	// otherwise.
	wd := s.opts.watchdog(tr)
	errs := make([]error, len(dests))
	var rebinds, ineligible, added, retracted int64

	// Cost estimates for longest-expected-first dispatch: the
	// destination's last observed solve time when the session has one,
	// its last CNF size as a proxy otherwise, and the policy-group size
	// on a fully cold start. Mixed units only occur on the first warm
	// call after new destinations appear, where any history-first
	// ordering is still better than FIFO.
	est := make([]int64, len(dirty))
	for k, i := range dirty {
		if e, ok := s.cache[dests[i]]; ok && e.res != nil {
			if d := e.res.Duration; d > 0 {
				est[k] = int64(d)
				continue
			}
			if e.res.NumClauses > 0 {
				est[k] = int64(e.res.NumClauses)
				continue
			}
		}
		est[k] = int64(len(groups[dests[i]]))
	}

	// A re-encode (tier 3) reserves the destination's previous encoded
	// size; a destination new to the session reserves the largest one
	// encoded so far in this call.
	var sibling sizeMax
	live := s.opts.keepsLive()
	panics := runInstances(len(dirty), s.opts, est, func(k int) {
		i := dirty[k]
		d := dests[i]
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		// One span covers the destination whichever tier serves it: a
		// live instance that refuses the edit re-encodes under it.
		dsp := destinationSpan(root, d)
		defer dsp.End()
		if ent := liveable[i]; ent != nil {
			if r, rt, ok := resolveLive(ctx, ent.enc, s.net, d, groups[d], s.opts, tr, dsp, wd); ok {
				results[i], encs[i], sizes[i] = r, ent.enc, ent.size
				if rt.Added+rt.Retracted > 0 {
					retargeted[i] = true
				} else {
					rebound[i] = true
				}
				atomic.AddInt64(&rebinds, 1)
				atomic.AddInt64(&added, int64(rt.Added))
				atomic.AddInt64(&retracted, int64(rt.Retracted))
				return
			}
			atomic.AddInt64(&ineligible, 1)
		}
		size := sizeHint{reserve: sibling.load(), shared: &sibling}
		if e, ok := s.cache[d]; ok && e.size.vars > 0 {
			size.reserve = e.size
		}
		r, enc, err := solveInstance(ctx, s.net, s.topo, d, groups[d], s.opts, live, &size, tr, dsp, wd)
		sizes[i] = size.encoded
		if enc != nil && live {
			enc.Park() // on the worker, so fresh instances compact in parallel
		} else {
			enc = nil
		}
		results[i], encs[i], errs[i] = r, enc, err
	})

	// A destination whose solve panicked may have left its live
	// instance half mutated: drop the cache entry of every such
	// destination, live instance and all, so the next call re-encodes
	// it from scratch.
	var panicked []error
	for k, err := range panics {
		if err != nil {
			d := dests[dirty[k]]
			delete(s.cache, d)
			panicked = append(panicked, fmt.Errorf("destination %s: %w", d, err))
		}
	}
	if len(panicked) > 0 {
		return nil, errors.Join(panicked...)
	}
	for _, i := range dirty {
		if errs[i] == nil && results[i] != nil && results[i].Err != nil {
			return nil, results[i].Err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, i := range dirty {
		if errs[i] != nil {
			return nil, fmt.Errorf("destination %s: %w", dests[i], errs[i])
		}
	}

	// Merge cached and fresh results, updating the cache. SolveTime and
	// Solver count only work done in this call: cached instances are
	// free (their InstanceStats keep the original solve's counters,
	// flagged Cached), and rebound instances count only the incremental
	// search.
	res := &Result{}
	for i, d := range dests {
		r := results[i]
		if !cached[i] {
			if !r.Sat && s.opts.Explain {
				conflicts[i] = explainDest(s.net, s.topo, d, groups[d], s.opts)
			}
			s.cache[d] = &cacheEntry{
				fp: fps[i], shared: shared,
				res: r, conflict: conflicts[i], enc: encs[i], size: sizes[i],
			}
			res.SolveTime += r.Duration
		}
		res.Instances = append(res.Instances, InstanceStats{
			Destination: d, Policies: len(groups[d]),
			NumVars: r.NumVars, NumClauses: r.NumClauses, NumDeltas: r.NumDeltas,
			Iterations: r.Iterations, Duration: r.Duration, Sat: r.Sat,
			Cached: cached[i], Rebound: rebound[i], Retargeted: retargeted[i],
			Slow:   !cached[i] && s.opts.markSlow(r.Duration),
			Solver: r.Stats,
		})
		if !cached[i] {
			res.Solver = res.Solver.Add(r.Stats)
		}
		if !r.Sat {
			res.setUnsat(d, conflicts[i])
			continue
		}
		res.Edits = append(res.Edits, r.Edits...)
		res.ObjectiveViolations += r.ViolatedWeight
	}

	applyAndValidate(s.net, s.topo, ps, s.opts, res, root)
	res.Duration = time.Since(start)

	root.SetBool("sat", res.unsat == nil)
	root.SetInt("cache_hits", int64(hits))
	root.SetInt("cache_misses", int64(len(dirty)))
	root.SetInt("rebinds", rebinds)
	m := tr.Metrics()
	m.Counter("session.cache.hits").Add(int64(hits))
	m.Counter("session.cache.misses").Add(int64(len(dirty)))
	m.Counter("session.cache.invalidations").Add(int64(invalidations))
	m.Counter("session.rebind.resolves").Add(rebinds)
	m.Counter("session.rebind.ineligible").Add(ineligible)
	m.Counter("session.rebind.policies_added").Add(added)
	m.Counter("session.rebind.policies_retracted").Add(retracted)
	ms := float64(res.Duration.Microseconds()) / 1000
	m.Histogram("session.solve_ms", obs.LatencyBuckets).Observe(ms)
	if hits > 0 {
		m.Histogram("session.solve.warm_ms", obs.LatencyBuckets).Observe(ms)
	} else {
		m.Histogram("session.solve.cold_ms", obs.LatencyBuckets).Observe(ms)
	}
	return res, nil
}

// keepsLive reports whether a session keeps live instances for tier-2
// re-solves: unless NoLiveInstances is set, and only without
// objectives, whose value companions stay anchored at the encode-time
// configuration (see encode.Rebind), so such an instance could never be
// rebound. A kept instance asserts its policies retractably
// (encode.EncodeRetractable), so it can follow policy edits too.
func (o Options) keepsLive() bool {
	return !o.NoLiveInstances && len(o.Objectives) == 0
}

// resolveLive attempts a tier-2 re-solve under the destination span
// dsp: retarget the destination's live encoder at the session's current
// network and at the destination's policy group (encode.Retarget), then
// re-run the MaxSAT search on the warm solver. Returns ok=false —
// leaving the instance untouched — when the configuration delta is not
// rebindable or the group holds a policy the instance has not encoded,
// in which case the caller falls back to a full re-encode.
func resolveLive(ctx context.Context, enc *encode.Encoder, net *config.Network,
	d prefix.Prefix, group []policy.Policy, opts Options, tr *obs.Tracer, dsp *obs.Span,
	wd *obs.Watchdog) (*encode.Result, encode.Retargeting, bool) {

	dest := d.String()
	stop := wd.Watch(ctx, dest)
	defer stop()
	enc.Observe(dsp, tr.Metrics())
	rt, ok := enc.Retarget(net, group)
	if !ok {
		return nil, rt, false
	}
	dsp.SetBool("rebind", true)
	dsp.SetInt("bindings_swapped", int64(rt.Swapped))
	dsp.SetInt("policies_added", int64(rt.Added))
	dsp.SetInt("policies_retracted", int64(rt.Retracted))
	ri, _ := obs.RequestFrom(ctx)
	rec := tr.Recorder()
	rec.RecordRequest(obs.EvSolveStart, dest, ri.ID, 0, 0)
	r := enc.ReSolveContext(ctx, opts.Strategy)
	rec.RecordRequest(obs.EvRebind, dest, ri.ID, int64(rt.Swapped), r.Duration.Milliseconds())
	var satBit int64
	if r.Sat {
		satBit = 1
	}
	rec.RecordRequest(obs.EvSolveEnd, dest, ri.ID, satBit, r.Duration.Milliseconds())
	return r, rt, true
}
