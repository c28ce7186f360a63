package config

import (
	"strconv"
	"strings"

	"github.com/aed-net/aed/internal/prefix"
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
	rn := child(root, NodeRouter, r.Name, nodeAttrs(routerAttrs, r))
	for _, i := range r.Interfaces {
		child(rn, NodeInterface, string(appendInterfaceSeg(nil, i)), nodeAttrs(interfaceAttrs, i))
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
		child(rn, NodeStaticRoute, string(appendStaticSeg(nil, s)), nodeAttrs(staticAttrs, s))
	}
	return rn
}

// The helpers below name each node of a router's subtree (its path
// segment) and list its attributes. Tree builds Nodes from them and
// Diff renders leaf lines from them, so the two renderings share one
// definition of every segment and attribute.

// attrWriter receives a node's attributes, in key order. Tree collects
// them into the node's Attrs; Diff (attrs nil) appends them to line,
// which holds the leaf's rendering so far ("Type k=v k=v", as leaf
// lines sort their attributes).
type attrWriter struct {
	attrs map[string]string
	line  []byte
}

func (w *attrWriter) str(key, val string) {
	if w.attrs != nil {
		w.attrs[key] = val
		return
	}
	w.line = append(w.line, ' ')
	w.line = append(w.line, key...)
	w.line = append(w.line, '=')
	w.line = append(w.line, val...)
}

func (w *attrWriter) num(key string, v int) {
	if w.attrs != nil {
		w.attrs[key] = strconv.Itoa(v)
		return
	}
	w.line = append(w.line, ' ')
	w.line = append(w.line, key...)
	w.line = append(w.line, '=')
	w.line = strconv.AppendInt(w.line, int64(v), 10)
}

func (w *attrWriter) pfx(key string, p prefix.Prefix) {
	if w.attrs != nil {
		w.attrs[key] = p.String()
		return
	}
	w.line = append(w.line, ' ')
	w.line = append(w.line, key...)
	w.line = append(w.line, '=')
	w.line = p.AppendTo(w.line)
}

// nodeAttrs collects x's attributes into a map for a Tree node.
func nodeAttrs[T any](attrs func(*attrWriter, T), x T) map[string]string {
	w := attrWriter{attrs: map[string]string{}}
	attrs(&w, x)
	return w.attrs
}

func routerAttrs(w *attrWriter, r *Router) { w.str("name", r.Name) }

func interfaceAttrs(w *attrWriter, i *Interface) {
	w.pfx("address", i.Addr)
	if i.FilterIn != "" {
		w.str("filterIn", i.FilterIn)
	}
	if i.FilterOut != "" {
		w.str("filterOut", i.FilterOut)
	}
	w.str("name", i.Name)
}

func processAttrs(w *attrWriter, p *Process) {
	w.num("id", p.ID)
	w.str("type", p.Protocol.String())
}

func adjacencyAttrs(w *attrWriter, a *Adjacency) {
	if a.Cost > 0 {
		w.num("cost", a.Cost)
	}
	if a.InFilter != "" {
		w.str("inFilter", a.InFilter)
	}
	if a.OutFilter != "" {
		w.str("outFilter", a.OutFilter)
	}
	w.str("peer", a.Peer)
}

func originationAttrs(w *attrWriter, o *Origination) { w.pfx("prefix", o.Prefix) }

func redistributionAttrs(w *attrWriter, p Proto) { w.str("protocol", p.String()) }

func filterAttrs(w *attrWriter, name string) { w.str("name", name) }

func staticAttrs(w *attrWriter, s *StaticRoute) {
	w.str("nexthop", s.NextHop)
	w.pfx("prefix", s.Prefix)
}

func appendSeg(b []byte, typ, arg string) []byte {
	b = append(b, typ...)
	b = append(b, '[')
	b = append(b, arg...)
	return append(b, ']')
}

func appendPrefixSeg(b []byte, typ string, p prefix.Prefix) []byte {
	b = append(b, typ...)
	b = append(b, '[')
	b = p.AppendTo(b)
	return append(b, ']')
}

func appendInterfaceSeg(b []byte, i *Interface) []byte { return appendSeg(b, NodeInterface, i.Name) }

func appendProcessSeg(b []byte, p *Process) []byte {
	b = append(b, NodeProcess+"["...)
	b = append(b, p.Protocol.String()...)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(p.ID), 10)
	return append(b, ']')
}

func appendAdjacencySeg(b []byte, a *Adjacency) []byte { return appendSeg(b, NodeAdjacency, a.Peer) }

func appendOriginationSeg(b []byte, o *Origination) []byte {
	return appendPrefixSeg(b, NodeOrigination, o.Prefix)
}

func appendRedistributionSeg(b []byte, p Proto) []byte {
	return appendSeg(b, NodeRedistribution, p.String())
}

func appendStaticSeg(b []byte, s *StaticRoute) []byte {
	return appendPrefixSeg(b, NodeStaticRoute, s.Prefix)
}

func buildProcess(rn *Node, p *Process) {
	pn := child(rn, NodeProcess, string(appendProcessSeg(nil, p)), nodeAttrs(processAttrs, p))
	for _, a := range p.Adjacencies {
		child(pn, NodeAdjacency, string(appendAdjacencySeg(nil, a)), nodeAttrs(adjacencyAttrs, a))
	}
	for _, o := range p.Originations {
		child(pn, NodeOrigination, string(appendOriginationSeg(nil, o)), nodeAttrs(originationAttrs, o))
	}
	for _, rd := range p.Redistribute {
		child(pn, NodeRedistribution, string(appendRedistributionSeg(nil, rd)), nodeAttrs(redistributionAttrs, rd))
	}
}

func buildRouteFilter(rn *Node, f *RouteFilter) {
	fn := child(rn, NodeRouteFilter, string(appendSeg(nil, NodeRouteFilter, f.Name)), nodeAttrs(filterAttrs, f.Name))
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
	fn := child(rn, NodePacketFilter, string(appendSeg(nil, NodePacketFilter, f.Name)), nodeAttrs(filterAttrs, f.Name))
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
