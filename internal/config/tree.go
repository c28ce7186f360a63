package config

import (
	"strconv"
	"strings"
)

// Node is a vertex of the generic configuration syntax tree (paper
// Figure 4). Nodes carry a type (e.g. "Router", "PacketFilter"),
// string attributes, and children. Leaf nodes correspond to single
// configuration lines; the Path uniquely identifies a node within a
// network and is the handle delta variables attach to.
type Node struct {
	Type     string
	Attrs    map[string]string
	Children []*Node
	parent   *Node
	path     string
}

// Node type names used in the tree and matched by XPath expressions.
const (
	NodeRouter         = "Router"
	NodeInterface      = "Interface"
	NodeProcess        = "RoutingProcess"
	NodeAdjacency      = "Adjacency"
	NodeOrigination    = "Origination"
	NodeRedistribution = "Redistribution"
	NodeRouteFilter    = "RouteFilter"
	NodePacketFilter   = "PacketFilter"
	NodeRule           = "Rule"
	NodeStaticRoute    = "StaticRoute"
)

// Path returns the unique node path, e.g.
// "B/RoutingProcess[bgp:50000]/Adjacency[A]".
func (n *Node) Path() string { return n.path }

// Parent returns the parent node (nil for the root).
func (n *Node) Parent() *Node { return n.parent }

// Attr returns the named attribute ("" if absent).
func (n *Node) Attr(key string) string { return n.Attrs[key] }

// Walk visits n and all descendants in depth-first order.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Leaves returns all leaf descendants (configuration lines).
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.Walk(func(m *Node) {
		if len(m.Children) == 0 && m != n {
			out = append(out, m)
		}
	})
	return out
}

// Find returns the descendant with the given path, or nil.
func (n *Node) Find(path string) *Node {
	var found *Node
	n.Walk(func(m *Node) {
		if m.path == path {
			found = m
		}
	})
	return found
}

func child(parent *Node, typ, key string, attrs map[string]string) *Node {
	if attrs == nil {
		attrs = map[string]string{}
	}
	c := &Node{Type: typ, Attrs: attrs, parent: parent}
	if parent.path == "" {
		c.path = key
	} else {
		c.path = parent.path + "/" + key
	}
	parent.Children = append(parent.Children, c)
	return c
}

// Tree builds the syntax tree for the whole network. The root has one
// Router child per device, in sorted name order for determinism.
func Tree(n *Network) *Node {
	root := &Node{Type: "Network", Attrs: map[string]string{}}
	for _, name := range n.RouterNames() {
		buildRouterTree(root, n.Routers[name])
	}
	return root
}

func buildRouterTree(root *Node, r *Router) *Node {
	rn := child(root, NodeRouter, r.Name, map[string]string{"name": r.Name})
	for _, i := range r.Interfaces {
		buildInterface(rn, i)
	}
	for _, p := range r.Processes {
		buildProcess(rn, p)
	}
	for _, f := range r.RouteFilters {
		buildRouteFilter(rn, f)
	}
	for _, f := range r.PacketFilters {
		buildPacketFilter(rn, f)
	}
	for _, s := range r.StaticRoutes {
		buildStatic(rn, s)
	}
	return rn
}

// The section builders below each add one top-level section of a
// router under rn. Tree and Diff share them, so the syntax tree has a
// single renderer.

func buildInterface(rn *Node, i *Interface) {
	attrs := map[string]string{"name": i.Name, "address": i.Addr.String()}
	if i.FilterIn != "" {
		attrs["filterIn"] = i.FilterIn
	}
	if i.FilterOut != "" {
		attrs["filterOut"] = i.FilterOut
	}
	child(rn, NodeInterface, "Interface["+i.Name+"]", attrs)
}

func buildProcess(rn *Node, p *Process) {
	id := strconv.Itoa(p.ID)
	pn := child(rn, NodeProcess, "RoutingProcess["+p.Protocol.String()+":"+id+"]", map[string]string{
		"type": p.Protocol.String(),
		"id":   id,
	})
	for _, a := range p.Adjacencies {
		attrs := map[string]string{"peer": a.Peer}
		if a.InFilter != "" {
			attrs["inFilter"] = a.InFilter
		}
		if a.OutFilter != "" {
			attrs["outFilter"] = a.OutFilter
		}
		if a.Cost > 0 {
			attrs["cost"] = strconv.Itoa(a.Cost)
		}
		child(pn, NodeAdjacency, "Adjacency["+a.Peer+"]", attrs)
	}
	for _, o := range p.Originations {
		pfx := o.Prefix.String()
		child(pn, NodeOrigination, "Origination["+pfx+"]",
			map[string]string{"prefix": pfx})
	}
	for _, rd := range p.Redistribute {
		child(pn, NodeRedistribution, "Redistribution["+rd.String()+"]",
			map[string]string{"protocol": rd.String()})
	}
}

func buildRouteFilter(rn *Node, f *RouteFilter) {
	fn := child(rn, NodeRouteFilter, "RouteFilter["+f.Name+"]",
		map[string]string{"name": f.Name})
	for idx, rule := range f.Rules {
		i := strconv.Itoa(idx)
		child(fn, NodeRule, "Rule["+i+"]", map[string]string{
			"index":  i,
			"line":   routeRuleString(rule),
			"prefix": rule.Prefix.String(),
			"action": permitString(rule.Permit),
		})
	}
}

func buildPacketFilter(rn *Node, f *PacketFilter) {
	fn := child(rn, NodePacketFilter, "PacketFilter["+f.Name+"]",
		map[string]string{"name": f.Name})
	for idx, rule := range f.Rules {
		i := strconv.Itoa(idx)
		child(fn, NodeRule, "Rule["+i+"]", map[string]string{
			"index":  i,
			"line":   packetRuleString(rule),
			"src":    rule.Src.String(),
			"dst":    rule.Dst.String(),
			"action": permitString(rule.Permit),
		})
	}
}

func buildStatic(rn *Node, s *StaticRoute) {
	pfx := s.Prefix.String()
	child(rn, NodeStaticRoute, "StaticRoute["+pfx+"]", map[string]string{
		"prefix":  pfx,
		"nexthop": s.NextHop,
	})
}

func permitString(p bool) string {
	if p {
		return "permit"
	}
	return "deny"
}

// EnsurePath creates (if missing) the node at the given path plus any
// intermediate nodes, deriving each segment's type and attributes from
// its textual form (e.g. "RouteFilter[x]" → type RouteFilter,
// name="x"). Created nodes are marked virtual="true": they represent
// potential syntax-tree nodes from AED's sketch rather than current
// configuration, letting XPath objectives select potential constructs
// (paper §5.1: delta variables exist for current and potential nodes).
func (root *Node) EnsurePath(path string) *Node {
	if path == "" {
		return root
	}
	cur := root
	var walked string
	for _, seg := range splitPathSegments(path) {
		if walked == "" {
			walked = seg
		} else {
			walked = walked + "/" + seg
		}
		var next *Node
		for _, c := range cur.Children {
			if c.path == walked {
				next = c
				break
			}
		}
		if next == nil {
			typ, attrs := segmentInfo(seg, walked == seg)
			attrs["virtual"] = "true"
			next = child(cur, typ, seg, attrs)
		}
		cur = next
	}
	return cur
}

// splitPathSegments splits a node path on '/' outside brackets (rule
// tags may embed prefixes containing '/').
func splitPathSegments(p string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case '[':
			depth++
		case ']':
			if depth > 0 {
				depth--
			}
		case '/':
			if depth == 0 {
				out = append(out, p[start:i])
				start = i + 1
			}
		}
	}
	return append(out, p[start:])
}

// segmentInfo derives a node type and attributes from a path segment.
func segmentInfo(seg string, first bool) (string, map[string]string) {
	attrs := map[string]string{}
	open := strings.IndexByte(seg, '[')
	if open < 0 {
		if first {
			attrs["name"] = seg
			return NodeRouter, attrs
		}
		return seg, attrs
	}
	typ := seg[:open]
	arg := strings.TrimSuffix(seg[open+1:], "]")
	switch typ {
	case NodeProcess:
		if i := strings.IndexByte(arg, ':'); i >= 0 {
			attrs["type"] = arg[:i]
			attrs["id"] = arg[i+1:]
		}
	case NodeAdjacency:
		attrs["peer"] = arg
	case NodeRouteFilter, NodePacketFilter, NodeInterface:
		attrs["name"] = arg
	case NodeOrigination, NodeStaticRoute:
		attrs["prefix"] = arg
	case NodeRule:
		attrs["index"] = arg
	}
	return typ, attrs
}

// RouterOf returns the name of the router a node belongs to (the first
// path component), or "" for the root.
func (n *Node) RouterOf() string {
	if n.path == "" {
		return ""
	}
	if i := strings.IndexByte(n.path, '/'); i >= 0 {
		return n.path[:i]
	}
	return n.path
}
