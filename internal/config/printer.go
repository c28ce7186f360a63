package config

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/aed-net/aed/internal/prefix"
)

// Print renders a router configuration in the canonical form accepted
// by Parse. The output is deterministic: stanzas appear in model order
// and every leaf of the syntax tree maps to exactly one line, which is
// what makes "lines changed" a well-defined metric.
func Print(r *Router) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hostname %s\n!\n", r.Name)
	for _, i := range r.Interfaces {
		fmt.Fprintf(&b, "interface %s\n", i.Name)
		if i.Addr.Len != 0 || i.Addr.Addr != 0 {
			// Interface addresses keep their host bits (unlike route
			// prefixes), so print the raw address.
			fmt.Fprintf(&b, " ip address %s/%d\n", prefix.FormatAddr(i.Addr.Addr), i.Addr.Len)
		}
		if i.FilterIn != "" {
			fmt.Fprintf(&b, " ip access-group %s in\n", i.FilterIn)
		}
		if i.FilterOut != "" {
			fmt.Fprintf(&b, " ip access-group %s out\n", i.FilterOut)
		}
		b.WriteString("!\n")
	}
	for _, p := range r.Processes {
		fmt.Fprintf(&b, "router %s %d\n", p.Protocol, p.ID)
		for _, o := range p.Originations {
			fmt.Fprintf(&b, " network %s\n", o.Prefix)
		}
		for _, a := range p.Adjacencies {
			fmt.Fprintf(&b, " neighbor %s\n", a.Peer)
			if a.InFilter != "" {
				fmt.Fprintf(&b, " neighbor %s route-map %s in\n", a.Peer, a.InFilter)
			}
			if a.OutFilter != "" {
				fmt.Fprintf(&b, " neighbor %s route-map %s out\n", a.Peer, a.OutFilter)
			}
			if a.Cost > 0 {
				fmt.Fprintf(&b, " neighbor %s cost %d\n", a.Peer, a.Cost)
			}
		}
		for _, rd := range p.Redistribute {
			fmt.Fprintf(&b, " redistribute %s\n", rd)
		}
		b.WriteString("!\n")
	}
	for _, f := range r.RouteFilters {
		fmt.Fprintf(&b, "route-filter %s\n", f.Name)
		for _, rule := range f.Rules {
			b.WriteString(" " + routeRuleString(rule) + "\n")
		}
		b.WriteString("!\n")
	}
	for _, f := range r.PacketFilters {
		fmt.Fprintf(&b, "access-list %s\n", f.Name)
		for _, rule := range f.Rules {
			b.WriteString(" " + packetRuleString(rule) + "\n")
		}
		b.WriteString("!\n")
	}
	for _, s := range r.StaticRoutes {
		fmt.Fprintf(&b, "ip route %s via %s\n", s.Prefix, s.NextHop)
	}
	return b.String()
}

func routeRuleString(r *RouteRule) string { return string(appendRouteRule(make([]byte, 0, 64), r)) }

// appendRouteRule appends a route-filter rule's line, as printed.
func appendRouteRule(b []byte, r *RouteRule) []byte {
	b = append(b, permitString(r.Permit)...)
	b = append(b, ' ')
	b = appendPrefixOrAny(b, r.Prefix)
	if r.LocalPref != 0 {
		b = append(b, " set local-preference "...)
		b = strconv.AppendInt(b, int64(r.LocalPref), 10)
	}
	if r.Metric != 0 {
		b = append(b, " set metric "...)
		b = strconv.AppendInt(b, int64(r.Metric), 10)
	}
	return b
}

func packetRuleString(r *PacketRule) string { return string(appendPacketRule(make([]byte, 0, 64), r)) }

// appendPacketRule appends a packet-filter rule's line, as printed.
func appendPacketRule(b []byte, r *PacketRule) []byte {
	b = append(b, permitString(r.Permit)...)
	b = append(b, " ip "...)
	b = appendPrefixOrAny(b, r.Src)
	b = append(b, ' ')
	return appendPrefixOrAny(b, r.Dst)
}

// appendPrefixOrAny appends p, or "any" for the default route.
func appendPrefixOrAny(b []byte, p prefix.Prefix) []byte {
	if p.IsDefault() {
		return append(b, "any"...)
	}
	return p.AppendTo(b)
}

// PrintNetwork renders all routers, keyed by router name.
func PrintNetwork(n *Network) map[string]string {
	out := make(map[string]string, len(n.Routers))
	for name, r := range n.Routers {
		out[name] = Print(r)
	}
	return out
}

// LineCount returns the number of configuration lines (excluding
// stanza separators) in a router's canonical rendering.
func LineCount(r *Router) int {
	count := 0
	for _, line := range strings.Split(Print(r), "\n") {
		line = strings.TrimSpace(line)
		if line != "" && line != "!" {
			count++
		}
	}
	return count
}
