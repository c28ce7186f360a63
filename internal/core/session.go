package core

import (
	"context"
	"sync"

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
// context is kept warm for tier-2 re-solves. It is parked
// (Encoder.Park): it keeps the compacted solver with its learned
// clauses, the rule bindings, the policy guards and the structural
// deltas, and drops what only encoding reads (environments, filter-chain
// and adjacency caches, the delta name index, aux deltas).
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
	tr := s.opts.tracer()
	c := newCall(tr, tr.StartCtx(ctx, "session.solve"), s.net, s.topo, ps, s.opts)
	defer c.root.End()

	// Fingerprint every destination unit and split clean from dirty.
	// Cache classification is also streamed into the flight recorder so
	// a live /recorder drain shows which destinations stayed warm.
	fsp := c.root.Child("fingerprint")
	ri, _ := obs.RequestFrom(ctx)
	rec := tr.Recorder()
	shared, fps := fingerprints(s.net, s.topo, c.dests, c.groups, s.opts)
	out := make([]destSolve, len(c.dests))
	hits, invalidations := 0, 0
	for i, d := range c.dests {
		if e, ok := s.cache[d]; ok {
			if e.fp == fps[i] {
				out[i] = destSolve{cached: true, res: e.res, conflict: e.conflict}
				hits++
				rec.RecordRequest(obs.EvCacheHit, d.String(), ri.ID, int64(fps[i]), 0)
				continue
			}
			out[i].prev = e
			// Dirty with a live instance: when the shared inputs are
			// untouched, only router configuration or the policy group
			// moved — a tier-2 candidate, which encode.Retarget vets.
			// (Sessions with objectives keep no live instance; see
			// keepsLive.)
			if e.enc != nil && e.shared == shared {
				out[i].live = e.enc
			}
			invalidations++
			rec.RecordRequest(obs.EvCacheInvalidate, d.String(), ri.ID, int64(fps[i]), int64(e.fp))
		}
		rec.RecordRequest(obs.EvCacheMiss, d.String(), ri.ID, int64(fps[i]), 0)
	}
	misses := len(c.dests) - hits
	fsp.SetInt("hits", int64(hits))
	fsp.SetInt("misses", int64(misses))
	fsp.End()

	// Re-solve only the dirty destinations. A destination whose solve
	// panicked may have left its live instance half mutated: drop its
	// cache entry, live instance and all, so the next call re-encodes it
	// from scratch.
	panicked, err := c.solveDests(ctx, out, s.opts.keepsLive())
	for _, i := range panicked {
		delete(s.cache, c.dests[i])
	}
	if err != nil {
		return nil, err
	}
	res := c.merge(out)
	var rebinds, ineligible, added, retracted int64
	for i, d := range c.dests {
		o := &out[i]
		if o.cached {
			continue
		}
		s.cache[d] = &cacheEntry{fp: fps[i], shared: shared,
			res: o.res, conflict: o.conflict, enc: o.enc, size: o.size}
		if o.rebound {
			rebinds++
			added += int64(o.rt.Added)
			retracted += int64(o.rt.Retracted)
		} else if o.live != nil {
			ineligible++
		}
	}
	c.finish(res)

	c.root.SetInt("cache_hits", int64(hits))
	c.root.SetInt("cache_misses", int64(misses))
	c.root.SetInt("rebinds", rebinds)
	m := tr.Metrics()
	m.Counter("session.cache.hits").Add(int64(hits))
	m.Counter("session.cache.misses").Add(int64(misses))
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

// resolveLive attempts a tier-2 re-solve of destination d under its
// destination span dsp: retarget the live instance o.live at the
// call's network and at d's policy group (encode.Retarget), re-run the
// MaxSAT search on the warm solver and park it again, into o. Returns
// false, leaving the instance untouched, when the configuration delta
// is not rebindable or the group holds a policy the instance has not
// encoded; the worker then re-encodes.
func (c *call) resolveLive(ctx context.Context, d prefix.Prefix, o *destSolve, dsp *obs.Span) bool {
	o.live.Observe(dsp, c.tr.Metrics())
	rt, ok := o.live.Retarget(c.net, c.groups[d])
	if !ok {
		return false
	}
	dsp.SetBool("rebind", true)
	dsp.SetInt("bindings_swapped", int64(rt.Swapped))
	dsp.SetInt("policies_added", int64(rt.Added))
	dsp.SetInt("policies_retracted", int64(rt.Retracted))
	o.res = o.live.ReSolveContext(ctx, c.opts.Strategy)
	o.live.Park() // compacts again only if the re-solve grew the solver
	o.enc, o.size, o.rt, o.rebound = o.live, o.prev.size, rt, true
	return true
}
