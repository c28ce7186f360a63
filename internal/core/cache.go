package core

import (
	"sort"

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
//     by rule index. The destination-independent part — interfaces,
//     processes, adjacencies, static routes — is hashed once per Solve
//     call into a per-router digest (routerDigests);
//   - shared network-wide inputs: the topology graph, the distinct
//     local-preference value set (the rank domain is built by scanning
//     every route filter in the network), and the objective
//     instantiation (objectives select roots over the full network
//     tree, so their source text and selected node sets are hashed);
//   - every Options field that shapes the encoding or the search.
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

// sharedFingerprint hashes the inputs every per-destination instance
// depends on: topology, the network-wide local-preference domain,
// objective instantiation, and the encoding/search options. It is
// computed once per Solve call and mixed into each destination hash.
func sharedFingerprint(net *config.Network, topo *topology.Topology, opts Options) uint64 {
	f := newFP()

	// Topology: routers, links, subnets, roles.
	routers := append([]string(nil), topo.Routers...)
	sort.Strings(routers)
	for _, r := range routers {
		f.str(r)
		f.str(topo.Role[r])
	}
	f.sep()
	links := topo.Links()
	keys := make([]string, len(links))
	for i, l := range links {
		keys[i] = l[0] + ">" + l[1]
	}
	sort.Strings(keys)
	for _, k := range keys {
		f.str(k)
	}
	f.sep()
	subs := make([]string, len(topo.Subnets))
	for i, s := range topo.Subnets {
		subs[i] = s.Router + ">" + s.Prefix.String()
	}
	sort.Strings(subs)
	for _, s := range subs {
		f.str(s)
	}
	f.sep()

	// Router count feeds the derived cost bound; the LP rank domain is
	// built from the distinct local-preference values across every
	// route filter in the network.
	f.int(len(net.Routers))
	if !opts.Encode.WideIntegers {
		lps := map[int]bool{}
		for _, r := range net.Routers {
			for _, rf := range r.RouteFilters {
				for _, rule := range rf.Rules {
					if rule.LocalPref != 0 {
						lps[rule.LocalPref] = true
					}
				}
			}
		}
		vals := make([]int, 0, len(lps))
		for v := range lps {
			vals = append(vals, v)
		}
		sort.Ints(vals)
		for _, v := range vals {
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
	f.int(opts.Encode.MaxCost)
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

// destFingerprint hashes one destination unit: the policy group plus
// each router's relevant configuration subtree. routers holds each
// router's destination-independent digest (routerDigests).
func destFingerprint(shared uint64, net *config.Network, routers map[string]uint64,
	d prefix.Prefix, group []policy.Policy, opts Options) uint64 {

	f := newFP()
	f.u64(shared)
	f.pfx(d)

	// The policy group, in input order: encoding order determines
	// variable order and hence which optimum the solver lands on.
	for _, p := range group {
		f.policy(p)
	}
	f.sep()

	// Traffic-class sources decide packet-filter rule relevance.
	srcs := make([]prefix.Prefix, 0, len(group))
	for _, p := range group {
		srcs = append(srcs, p.Src)
	}

	for _, name := range net.RouterNames() {
		f.str(name)
		f.u64(routers[name])
		hashRouterDest(f, net.Routers[name], d, srcs, opts)
	}
	return f.sum()
}

// routerDigests hashes, once per Solve call, the part of each router's
// configuration that every destination's instance reads (hashRouter).
func routerDigests(net *config.Network) map[string]uint64 {
	out := make(map[string]uint64, len(net.Routers))
	for name, r := range net.Routers {
		f := newFP()
		hashRouter(f, r)
		out[name] = f.sum()
	}
	return out
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
func hashRouterDest(f *fp, r *config.Router, d prefix.Prefix, srcs []prefix.Prefix, opts Options) {
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
			if !opts.Encode.NoPrune && !packetRuleRelevant(rule, d, srcs) {
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
func packetRuleRelevant(rule *config.PacketRule, d prefix.Prefix, srcs []prefix.Prefix) bool {
	if !rule.Dst.Overlaps(d) {
		return false
	}
	for _, src := range srcs {
		if rule.Src.Overlaps(src) {
			return true
		}
	}
	return false
}
