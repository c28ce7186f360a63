// Package policy defines the forwarding policies AED synthesizes
// toward: reachability, blocking, waypointing, path preference, and
// isolation (§6.2 of the paper), plus a small text format, grouping by
// destination (the paper's per-destination parallel-solving
// optimization), and subdivision of overlapping traffic classes into
// packet equivalence classes.
package policy

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/aed-net/aed/internal/prefix"
)

// Kind discriminates policy types.
type Kind int

// Supported policy kinds.
const (
	// Reachability: traffic from Src must reach Dst.
	Reachability Kind = iota
	// Blocking: traffic from Src must NOT reach Dst.
	Blocking
	// Waypoint: traffic from Src to Dst must traverse Via.
	Waypoint
	// PathPreference: traffic prefers the router Via over Avoid as
	// transit; the Avoid path may be used only when the Via path is
	// unavailable.
	PathPreference
	// Isolation: symmetric blocking between Src and Dst.
	Isolation
	// PathLength: traffic from Src must reach Dst over at most MaxLen
	// router-to-router hops (§6.2 "path ... length constraints").
	PathLength
)

func (k Kind) String() string {
	switch k {
	case Reachability:
		return "reach"
	case Blocking:
		return "block"
	case Waypoint:
		return "waypoint"
	case PathPreference:
		return "prefer"
	case Isolation:
		return "isolate"
	case PathLength:
		return "maxlen"
	}
	return "unknown"
}

// Policy is one forwarding policy over a (source, destination) traffic
// class. Src/Dst are host-subnet prefixes.
type Policy struct {
	Kind Kind
	Src  prefix.Prefix
	Dst  prefix.Prefix
	// Via is the waypoint router (Waypoint) or preferred transit
	// router (PathPreference).
	Via string
	// Avoid is the less-preferred transit router (PathPreference).
	Avoid string
	// MaxLen bounds the hop count (PathLength).
	MaxLen int
}

// String renders the policy in the text format accepted by ParseOne.
func (p Policy) String() string {
	switch p.Kind {
	case Waypoint:
		return fmt.Sprintf("waypoint %s -> %s via %s", p.Src, p.Dst, p.Via)
	case PathPreference:
		return fmt.Sprintf("prefer %s -> %s via %s over %s", p.Src, p.Dst, p.Via, p.Avoid)
	case PathLength:
		return fmt.Sprintf("maxlen %s -> %s <= %d", p.Src, p.Dst, p.MaxLen)
	default:
		return fmt.Sprintf("%s %s -> %s", p.Kind, p.Src, p.Dst)
	}
}

// ParseOne parses a single policy line, e.g.:
//
//	reach 10.0.0.0/24 -> 10.1.0.0/24
//	block 10.0.0.0/24 -> 10.2.0.0/24
//	waypoint 10.0.0.0/24 -> 10.1.0.0/24 via fw1
//	prefer 10.0.0.0/24 -> 10.1.0.0/24 via r2 over r3
//	isolate 10.0.0.0/24 -> 10.3.0.0/24
func ParseOne(line string) (Policy, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[2] != "->" {
		return Policy{}, fmt.Errorf("policy: want '<kind> <src> -> <dst> ...', got %q", line)
	}
	var p Policy
	switch fields[0] {
	case "reach":
		p.Kind = Reachability
	case "block":
		p.Kind = Blocking
	case "waypoint":
		p.Kind = Waypoint
	case "prefer":
		p.Kind = PathPreference
	case "isolate":
		p.Kind = Isolation
	case "maxlen":
		p.Kind = PathLength
	default:
		return Policy{}, fmt.Errorf("policy: unknown kind %q", fields[0])
	}
	src, err := prefix.Parse(fields[1])
	if err != nil {
		return Policy{}, fmt.Errorf("policy: bad source: %w", err)
	}
	dst, err := prefix.Parse(fields[3])
	if err != nil {
		return Policy{}, fmt.Errorf("policy: bad destination: %w", err)
	}
	p.Src, p.Dst = src, dst
	rest := fields[4:]
	switch p.Kind {
	case Waypoint:
		if len(rest) != 2 || rest[0] != "via" {
			return Policy{}, fmt.Errorf("policy: waypoint wants 'via <router>'")
		}
		p.Via = rest[1]
	case PathPreference:
		if len(rest) != 4 || rest[0] != "via" || rest[2] != "over" {
			return Policy{}, fmt.Errorf("policy: prefer wants 'via <router> over <router>'")
		}
		p.Via, p.Avoid = rest[1], rest[3]
	case PathLength:
		if len(rest) != 2 || rest[0] != "<=" {
			return Policy{}, fmt.Errorf("policy: maxlen wants '<= <hops>'")
		}
		n, err := strconv.Atoi(rest[1])
		if err != nil || n < 1 {
			return Policy{}, fmt.Errorf("policy: bad hop bound %q", rest[1])
		}
		p.MaxLen = n
	default:
		if len(rest) != 0 {
			return Policy{}, fmt.Errorf("policy: unexpected trailing words %v", rest)
		}
	}
	return p, nil
}

// Parse reads a policy set, one policy per line; '#' starts a comment.
func Parse(text string) ([]Policy, error) {
	var out []Policy
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		p, err := ParseOne(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, p)
	}
	return out, sc.Err()
}

// Format renders a policy set in the format accepted by Parse.
func Format(ps []Policy) string {
	var b strings.Builder
	for _, p := range ps {
		b.WriteString(p.String())
		b.WriteString("\n")
	}
	return b.String()
}

// GroupByDestination partitions policies by destination prefix, the
// unit of AED's parallel per-destination solving (§8). Isolation
// policies appear in both directions' groups as Blocking.
func GroupByDestination(ps []Policy) map[prefix.Prefix][]Policy {
	groups := make(map[prefix.Prefix][]Policy)
	for _, p := range ps {
		if p.Kind == Isolation {
			groups[p.Dst] = append(groups[p.Dst], Policy{Kind: Blocking, Src: p.Src, Dst: p.Dst})
			groups[p.Src] = append(groups[p.Src], Policy{Kind: Blocking, Src: p.Dst, Dst: p.Src})
			continue
		}
		groups[p.Dst] = append(groups[p.Dst], p)
	}
	return groups
}

// Destinations returns the sorted distinct destination prefixes.
func Destinations(ps []Policy) []prefix.Prefix {
	var all []prefix.Prefix
	for d := range GroupByDestination(ps) {
		all = append(all, d)
	}
	prefix.Sort(all)
	return all
}

// SubdividePolicies rewrites policies whose traffic classes partially
// overlap into equivalent policies over disjoint packet equivalence
// classes (paper §6.2 footnote 4). Policies over already-disjoint
// prefixes pass through unchanged.
func SubdividePolicies(ps []Policy) []Policy {
	var prefixes []prefix.Prefix
	for _, p := range ps {
		prefixes = append(prefixes, p.Src, p.Dst)
	}
	if prefix.Disjoint(prefix.Dedup(prefixes)) {
		return ps
	}
	atoms := prefix.Atoms(prefixes)
	var out []Policy
	for _, p := range ps {
		srcAtoms := prefix.CoveringAtoms(p.Src, atoms)
		dstAtoms := prefix.CoveringAtoms(p.Dst, atoms)
		for _, s := range srcAtoms {
			for _, d := range dstAtoms {
				q := p
				q.Src, q.Dst = s, d
				out = append(out, q)
			}
		}
	}
	return out
}

// Dedup removes exact duplicate policies, preserving first-seen order.
// Two policies are duplicates when their String forms are equal.
func Dedup(ps []Policy) []Policy {
	seen := make(map[dedupKey]bool, len(ps))
	var out []Policy
	for _, p := range ps {
		k := p.dedupKey()
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}

// dedupKey holds exactly the fields String renders: the kind (every
// unknown kind renders alike), both prefixes with their host bits
// cleared, and Via, Avoid and MaxLen only for the kinds that print
// them. Equal keys are equal String forms, without formatting either.
type dedupKey struct {
	kind       Kind
	src, dst   prefix.Prefix
	via, avoid string
	maxLen     int
}

func (p Policy) dedupKey() dedupKey {
	k := dedupKey{kind: p.Kind, src: p.Src.Canonical(), dst: p.Dst.Canonical()}
	switch p.Kind {
	case Waypoint:
		k.via = p.Via
	case PathPreference:
		k.via, k.avoid = p.Via, p.Avoid
	case PathLength:
		k.maxLen = p.MaxLen
	case Reachability, Blocking, Isolation:
	default:
		k.kind = -1
	}
	return k
}

// Sort orders policies deterministically (by kind, then src, then dst).
func Sort(ps []Policy) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Kind != ps[j].Kind {
			return ps[i].Kind < ps[j].Kind
		}
		if c := ps[i].Src.Compare(ps[j].Src); c != 0 {
			return c < 0
		}
		if c := ps[i].Dst.Compare(ps[j].Dst); c != 0 {
			return c < 0
		}
		return ps[i].Via+ps[i].Avoid < ps[j].Via+ps[j].Avoid
	})
}
