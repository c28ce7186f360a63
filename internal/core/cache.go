package core

import (
	"cmp"
	"slices"
	"strings"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/topology"
)

// This file computes the per-destination fingerprints that drive the
// session engine's solve cache. A fingerprint is a stable FNV-1a hash
// over everything one per-destination MaxSMT instance can read:
//
//   - the destination prefix and its policy group (in input order —
//     the encoding, and therefore the chosen optimum, is
//     order-sensitive);
//   - each router's relevant configuration subtree — interfaces,
//     processes, adjacencies, static routes, and the filter rules the
//     encoder would actually encode for this destination (all rules
//     when pruning is disabled). Rule positions are hashed alongside
//     rule contents because delta names and extracted edits are keyed
//     by rule index;
//   - shared network-wide inputs: the topology graph, the distinct
//     local-preference value set (the rank domain is built by scanning
//     every route filter in the network), and the objective
//     instantiation (objectives select roots over the full network
//     tree, so their source text and selected node sets are hashed);
//   - every Options field that shapes the encoding or the search.
//
// fingerprints does the network-wide work once per Solve call: the
// shared inputs (sharedFingerprint, the topology hashed from its sorted
// neighbour index) and, per router in name order, a digest of the
// destination-independent part — interfaces, processes, adjacencies,
// static routes (routerDigests). Once per destination it hashes only
// what depends on the destination: the policy group, covering
// originations and the relevant filter rules (destFingerprint). Every
// call hashes the network and topology it is given; nothing is kept
// across calls, so an edit made in place still dirties its
// destinations.
//
// The hash is a conservative over-approximation of the instance's
// input: any change that could alter the instance changes its
// fingerprint (soundness), while changes outside the relevant subtree
// leave it untouched (precision). Extra dirtiness only costs time;
// missed dirtiness would reuse a stale result, so when in doubt a
// field is hashed.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fp is an incremental FNV-1a hasher with field separators so that
// adjacent variable-length fields cannot alias each other.
type fp struct{ h uint64 }

func newFP() *fp { return &fp{h: fnvOffset64} }

func (f *fp) byte(b byte) {
	f.h ^= uint64(b)
	f.h *= fnvPrime64
}

// sep marks a field boundary.
func (f *fp) sep() { f.byte(0xff) }

func (f *fp) str(s string) {
	for i := 0; i < len(s); i++ {
		f.byte(s[i])
	}
	f.sep()
}

func (f *fp) u64(v uint64) {
	for i := 0; i < 8; i++ {
		f.byte(byte(v >> (8 * i)))
	}
}

func (f *fp) int(v int) { f.u64(uint64(int64(v))) }

func (f *fp) bool(b bool) {
	if b {
		f.byte(1)
	} else {
		f.byte(0)
	}
}

// pfx hashes a prefix's address and length as one fixed-width word.
func (f *fp) pfx(p prefix.Prefix) { f.u64(uint64(p.Addr)<<8 | uint64(uint8(p.Len))) }

// policy hashes every field of p.
func (f *fp) policy(p policy.Policy) {
	f.int(int(p.Kind))
	f.pfx(p.Src)
	f.pfx(p.Dst)
	f.str(p.Via)
	f.str(p.Avoid)
	f.int(p.MaxLen)
}

func (f *fp) sum() uint64 { return f.h }

// fingerprints hashes the shared inputs and every destination unit of
// one Solve call: shared is the sharedFingerprint part, fps[i] the
// fingerprint of dests[i].
func fingerprints(net *config.Network, topo *topology.Topology, dests []prefix.Prefix,
	groups map[prefix.Prefix][]policy.Policy, opts Options) (shared uint64, fps []uint64) {
	shared = sharedFingerprint(net, topo, opts)
	routers := routerDigests(net)
	fps = make([]uint64, len(dests))
	for i, d := range dests {
		fps[i] = destFingerprint(shared, routers, d, groups[d], opts)
	}
	return shared, fps
}

// sharedFingerprint hashes the inputs every per-destination instance
// depends on: topology, the network-wide local-preference domain,
// objective instantiation, and the encoding/search options. It is
// computed once per Solve call and mixed into each destination hash.
func sharedFingerprint(net *config.Network, topo *topology.Topology, opts Options) uint64 {
	f := newFP()

	// Topology: routers in name order, each with its role and sorted
	// neighbours, so the hash does not depend on the order the routers
	// and links were added in. A link with an endpoint missing from
	// Routers leaves the neighbour lists short of twice the link count;
	// then the whole link list is hashed too.
	routers := slices.Clone(topo.Routers)
	slices.Sort(routers)
	degrees := 0
	for i, r := range routers {
		f.str(r)
		f.str(topo.Role[r])
		if i > 0 && routers[i-1] == r {
			continue // a repeated name has the same neighbours
		}
		for _, nb := range topo.Neighbors(r) {
			f.str(nb)
			degrees++
		}
		f.sep()
	}
	f.sep()
	if degrees != 2*topo.NumLinks() {
		for _, l := range topo.Links() {
			f.str(l[0])
			f.str(l[1])
		}
	}
	f.sep()
	// Subnets as (router, prefix) pairs, sorted.
	subs := slices.Clone(topo.Subnets)
	slices.SortFunc(subs, func(x, y topology.Subnet) int {
		if c := strings.Compare(x.Router, y.Router); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Prefix.Addr, y.Prefix.Addr); c != 0 {
			return c
		}
		return cmp.Compare(x.Prefix.Len, y.Prefix.Len)
	})
	for _, s := range subs {
		f.str(s.Router)
		f.pfx(s.Prefix)
	}
	f.sep()

	// Router count feeds the derived cost bound; the LP rank domain is
	// built from the distinct local-preference values across every
	// route filter in the network.
	f.int(len(net.Routers))
	if !opts.Encode.WideIntegers {
		var lps []int
		for _, r := range net.Routers {
			for _, rf := range r.RouteFilters {
				for _, rule := range rf.Rules {
					if rule.LocalPref != 0 {
						lps = append(lps, rule.LocalPref)
					}
				}
			}
		}
		slices.Sort(lps)
		for _, v := range slices.Compact(lps) {
			f.int(v)
		}
	}
	f.sep()

	// Options that shape the encoding or the search.
	f.int(int(opts.Strategy))
	f.bool(opts.MinimizeLines)
	f.bool(opts.Explain)
	f.bool(opts.Encode.NoPrune)
	f.bool(opts.Encode.WideIntegers)
	f.sep()

	// Objectives: source text plus the node sets they select over the
	// full network tree. Instance roots are selected from the (delta-
	// augmented) whole-network tree, so a config change anywhere that
	// alters the selection — a new GROUPBY group, a new EQUATE member —
	// must dirty every destination. Delta-augmented (potential) nodes
	// are a function of each destination's relevant subtree, which the
	// per-destination hash covers.
	if len(opts.Objectives) > 0 {
		tree := config.Tree(net)
		for _, o := range opts.Objectives {
			f.str(o.String())
			for _, inst := range o.Instantiate(tree) {
				f.str(inst.Label)
				for _, root := range inst.Roots {
					f.str(root.Path())
				}
				f.sep()
			}
			f.sep()
		}
	}
	return f.sum()
}

// routerDigest is one router with the digest of its destination-
// independent configuration (hashRouter).
type routerDigest struct {
	name   string
	router *config.Router
	sum    uint64
}

// routerDigests hashes, once per Solve call, the part of each router's
// configuration that every destination's instance reads, and returns
// the routers in name order.
func routerDigests(net *config.Network) []routerDigest {
	out := make([]routerDigest, 0, len(net.Routers))
	for name, r := range net.Routers {
		f := newFP()
		hashRouter(f, r)
		out = append(out, routerDigest{name: name, router: r, sum: f.sum()})
	}
	slices.SortFunc(out, func(x, y routerDigest) int { return strings.Compare(x.name, y.name) })
	return out
}

// destFingerprint hashes one destination unit: the policy group plus
// each router's relevant configuration subtree. routers holds each
// router's destination-independent digest, in name order
// (routerDigests).
func destFingerprint(shared uint64, routers []routerDigest, d prefix.Prefix,
	group []policy.Policy, opts Options) uint64 {

	f := newFP()
	f.u64(shared)
	f.pfx(d)

	// The policy group, in input order: encoding order determines
	// variable order and hence which optimum the solver lands on.
	for _, p := range group {
		f.policy(p)
	}
	f.sep()

	for _, r := range routers {
		f.str(r.name)
		f.u64(r.sum)
		hashRouterDest(f, r.router, d, group, opts)
	}
	return f.sum()
}

// hashRouter hashes the destination-independent slice of one router's
// configuration: interfaces, process identities with their adjacencies
// and redistribution, and static routes.
func hashRouter(f *fp, r *config.Router) {
	// Interfaces: addresses and packet-filter attachments are read for
	// every hop formula.
	for _, i := range r.Interfaces {
		f.str(i.Name)
		f.pfx(i.Addr)
		f.str(i.FilterIn)
		f.str(i.FilterOut)
	}
	f.sep()

	// Processes: protocol identity, adjacencies (peers, route-filter
	// attachments, costs) and redistribution.
	for _, p := range r.Processes {
		f.int(int(p.Protocol))
		f.int(p.ID)
		for _, proto := range p.Redistribute {
			f.int(int(proto))
		}
		f.sep()
		for _, a := range p.Adjacencies {
			f.str(a.Peer)
			f.str(a.InFilter)
			f.str(a.OutFilter)
			f.int(a.Cost)
		}
		f.sep()
	}
	f.sep()

	// Static routes: selection priority depends on list order, so the
	// whole list is hashed (entries are few and cheap).
	for _, s := range r.StaticRoutes {
		f.pfx(s.Prefix)
		f.str(s.NextHop)
	}
	f.sep()
}

// hashRouterDest hashes the slice of one router's configuration that
// depends on the destination: per process, the originations covering
// it, and the filter rules the encoder would encode for it.
func hashRouterDest(f *fp, r *config.Router, d prefix.Prefix, group []policy.Policy, opts Options) {
	for _, p := range r.Processes {
		for _, o := range p.Originations {
			if o.Prefix.Covers(d) {
				f.pfx(o.Prefix)
			}
		}
		f.sep()
	}
	f.sep()

	// Route filters: the rules the encoder would encode — all of them
	// with pruning disabled, otherwise the ones matching d — keyed by
	// index, because delta names and extracted edits are index-based
	// and a removal shifting a relevant rule's position must dirty.
	for _, rf := range r.RouteFilters {
		f.str(rf.Name)
		for i, rule := range rf.Rules {
			if !opts.Encode.NoPrune && !rule.Matches(d) {
				continue
			}
			f.int(i)
			f.bool(rule.Permit)
			f.pfx(rule.Prefix)
			f.int(rule.LocalPref)
			f.int(rule.Metric)
		}
		f.sep()
	}
	f.sep()

	// Packet filters: rules relevant to any (src, d) traffic class of
	// this group, by the same index-keyed logic.
	for _, pf := range r.PacketFilters {
		f.str(pf.Name)
		for i, rule := range pf.Rules {
			if !opts.Encode.NoPrune && !packetRuleRelevant(rule, d, group) {
				continue
			}
			f.int(i)
			f.bool(rule.Permit)
			f.pfx(rule.Src)
			f.pfx(rule.Dst)
		}
		f.sep()
	}
	f.sep()
}

// packetRuleRelevant mirrors the encoder's pruning test: a rule is
// encoded when it can match some traffic class (src, d) of the group.
func packetRuleRelevant(rule *config.PacketRule, d prefix.Prefix, group []policy.Policy) bool {
	if !rule.Dst.Overlaps(d) {
		return false
	}
	for _, p := range group {
		if rule.Src.Overlaps(p.Src) {
			return true
		}
	}
	return false
}
