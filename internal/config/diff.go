package config

import (
	"slices"
	"sort"
	"strconv"
	"strings"
)

// DiffStats summarizes the difference between two network snapshots
// using the metrics the paper's evaluation reports: devices changed,
// lines changed (added + removed leaf lines), and per-device detail.
type DiffStats struct {
	DevicesChanged int
	LinesAdded     int
	LinesRemoved   int
	// PerDevice maps router name -> lines changed on that device.
	PerDevice map[string]int
	// AddedPaths / RemovedPaths list the syntax-tree leaf paths that
	// differ, for reporting and template-violation analysis.
	AddedPaths   []string
	RemovedPaths []string
}

// LinesChanged is the total of added and removed lines.
func (d *DiffStats) LinesChanged() int { return d.LinesAdded + d.LinesRemoved }

// Diff compares two snapshots of the same network structurally. A leaf
// present only in after counts as an added line, only in before as a
// removed line; a node whose attributes changed counts as one removed
// plus one added (the line was rewritten).
//
// The result is that of diffing the two whole syntax trees, but Diff
// renders only what differs: it walks the routers of both sides,
// groups each router's sections by their path key (interface name,
// protocol:id, filter name, static prefix), compares the groups as
// typed values and renders, on both sides, only the groups whose
// contents differ. A router present on one side only, or with no
// sections on one side (an empty router is itself a leaf line), is
// rendered whole. If any router is stored under a key other than its
// name, or its name contains '/', leaf paths could cross routers, and
// Diff falls back to rendering both networks whole.
func Diff(before, after *Network) *DiffStats {
	stats := &DiffStats{PerDevice: make(map[string]int)}
	if !sectionDiffable(before) || !sectionDiffable(after) {
		stats.addLeaves(leafSet(before), leafSet(after))
	} else {
		for name, b := range before.Routers {
			diffRouter(stats, b, after.Routers[name])
		}
		for name, a := range after.Routers {
			if _, ok := before.Routers[name]; !ok {
				diffRouter(stats, nil, a)
			}
		}
	}
	stats.DevicesChanged = len(stats.PerDevice)
	sort.Strings(stats.AddedPaths)
	sort.Strings(stats.RemovedPaths)
	return stats
}

// addLeaves accumulates the difference between two path -> line maps.
func (d *DiffStats) addLeaves(bLeaves, aLeaves map[string]string) {
	for path, bline := range bLeaves {
		if aline, ok := aLeaves[path]; !ok {
			d.LinesRemoved++
			d.RemovedPaths = append(d.RemovedPaths, path)
			d.PerDevice[routerOfPath(path)]++
		} else if aline != bline {
			d.LinesRemoved++
			d.LinesAdded++
			d.RemovedPaths = append(d.RemovedPaths, path)
			d.AddedPaths = append(d.AddedPaths, path)
			d.PerDevice[routerOfPath(path)] += 2
		}
	}
	for path := range aLeaves {
		if _, ok := bLeaves[path]; !ok {
			d.LinesAdded++
			d.AddedPaths = append(d.AddedPaths, path)
			d.PerDevice[routerOfPath(path)]++
		}
	}
}

// sectionDiffable reports whether every router's leaf paths stay
// inside that router's own path prefix, so routers diff independently.
func sectionDiffable(n *Network) bool {
	for name, r := range n.Routers {
		if r.Name != name || strings.IndexByte(name, '/') >= 0 {
			return false
		}
	}
	return true
}

// diffRouter adds the difference between two versions of one router;
// either may be nil (the router was added or removed).
func diffRouter(d *DiffStats, b, a *Router) {
	if b == nil || a == nil || b.sectionless() || a.sectionless() {
		d.addLeaves(routerLeaves(b), routerLeaves(a))
		return
	}
	diffSections(d, b.Name, b.Interfaces, a.Interfaces,
		func(i *Interface) sectionKey { return sectionKey{name: i.Name} },
		func(x, y *Interface) bool { return *x == *y }, buildInterface)
	diffSections(d, b.Name, b.Processes, a.Processes,
		func(p *Process) sectionKey { return sectionKey{name: p.Protocol.String(), num: p.ID} },
		processEqual, buildProcess)
	diffSections(d, b.Name, b.RouteFilters, a.RouteFilters,
		func(f *RouteFilter) sectionKey { return sectionKey{name: f.Name} },
		func(x, y *RouteFilter) bool { return x.Name == y.Name && ptrsEqual(x.Rules, y.Rules) },
		buildRouteFilter)
	diffSections(d, b.Name, b.PacketFilters, a.PacketFilters,
		func(f *PacketFilter) sectionKey { return sectionKey{name: f.Name} },
		func(x, y *PacketFilter) bool { return x.Name == y.Name && ptrsEqual(x.Rules, y.Rules) },
		buildPacketFilter)
	diffSections(d, b.Name, b.StaticRoutes, a.StaticRoutes,
		func(s *StaticRoute) sectionKey { return sectionKey{num: s.Prefix.Len, addr: s.Prefix.First()} },
		func(x, y *StaticRoute) bool { return *x == *y }, buildStatic)
}

func (r *Router) sectionless() bool {
	return len(r.Interfaces) == 0 && len(r.Processes) == 0 && len(r.RouteFilters) == 0 &&
		len(r.PacketFilters) == 0 && len(r.StaticRoutes) == 0
}

// routerLeaves renders one whole router (nil renders nothing).
func routerLeaves(r *Router) map[string]string {
	if r == nil {
		return nil
	}
	root := &Node{Type: "Network", Attrs: map[string]string{}}
	buildRouterTree(root, r)
	return leafLines(root)
}

// sectionKey identifies the path segment a section renders under
// within its kind: the interface or filter name, protocol name and
// process ID, or a static route's masked prefix.
type sectionKey struct {
	name string
	num  int
	addr uint32
}

// diffSections diffs one kind of section of a router. Sections with
// the same key render to overlapping paths, so they are compared and
// rendered together, in model order, which keeps duplicate keys and
// rule-occurrence counting exactly as in the whole-tree rendering.
func diffSections[T any](d *DiffStats, router string, b, a []T,
	key func(T) sectionKey, equal func(x, y T) bool, build func(*Node, T)) {
	if sectionsEqual(b, a, equal) {
		return
	}
	type group struct{ b, a []T }
	groups := make(map[sectionKey]*group)
	var order []sectionKey
	lookup := func(x T) *group {
		k := key(x)
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
			order = append(order, k)
		}
		return g
	}
	for _, x := range b {
		g := lookup(x)
		g.b = append(g.b, x)
	}
	for _, x := range a {
		g := lookup(x)
		g.a = append(g.a, x)
	}
	render := func(xs []T) map[string]string {
		rn := &Node{Type: NodeRouter, path: router}
		for _, x := range xs {
			build(rn, x)
		}
		return leafLines(rn)
	}
	for _, k := range order {
		if g := groups[k]; !sectionsEqual(g.b, g.a, equal) {
			d.addLeaves(render(g.b), render(g.a))
		}
	}
}

func sectionsEqual[T any](b, a []T, equal func(x, y T) bool) bool {
	if len(b) != len(a) {
		return false
	}
	for i := range b {
		if !equal(b[i], a[i]) {
			return false
		}
	}
	return true
}

// ptrsEqual compares two slices of flat leaf structs element-wise.
func ptrsEqual[T comparable](x, y []*T) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if *x[i] != *y[i] {
			return false
		}
	}
	return true
}

func processEqual(x, y *Process) bool {
	return x.Protocol == y.Protocol && x.ID == y.ID &&
		ptrsEqual(x.Adjacencies, y.Adjacencies) &&
		ptrsEqual(x.Originations, y.Originations) &&
		slices.Equal(x.Redistribute, y.Redistribute)
}

// leafSet flattens a network's syntax tree into path -> rendered line.
func leafSet(n *Network) map[string]string { return leafLines(Tree(n)) }

// leafLines flattens the leaves under root into path -> rendered line.
// Filter rules are identified by content and occurrence count rather
// than by positional index, so inserting a rule counts as one added
// line instead of rewriting every rule it shifts (matching textual
// diff semantics).
func leafLines(root *Node) map[string]string {
	out := make(map[string]string)
	var occ map[string]int
	for _, leaf := range root.Leaves() {
		path := leaf.Path()
		if leaf.Type == NodeRule {
			base := leaf.Parent().Path() + "/Rule{" + leaf.Attr("line") + "}"
			if occ == nil {
				occ = make(map[string]int)
			}
			occ[base]++
			out[base+"#"+strconv.Itoa(occ[base])] = base
			continue
		}
		out[path] = leafLine(leaf)
	}
	return out
}

// leafLine renders a leaf's identity+attributes deterministically.
func leafLine(n *Node) string {
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(n.Type)
	for _, k := range keys {
		b.WriteString(" ")
		b.WriteString(k)
		b.WriteString("=")
		b.WriteString(n.Attrs[k])
	}
	return b.String()
}

func routerOfPath(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// TemplateViolations counts devices whose filter sections deviate from
// their role template after an update. Devices are grouped by their
// "before" filter content (the paper's methodology: group
// configurations based on filter rules in the before snapshot, then
// compare those segments across snapshots). A group's template is its
// majority "after" filter content; members differing from it are
// violations.
func TemplateViolations(before, after *Network) int {
	groups := make(map[string][]string) // before-filter-signature -> router names
	for name, r := range before.Routers {
		groups[filterSignature(r)] = append(groups[filterSignature(r)], name)
	}
	violations := 0
	for _, members := range groups {
		if len(members) < 2 {
			continue // singleton role: nothing to be similar to
		}
		// Majority after-signature within the group.
		counts := make(map[string]int)
		for _, name := range members {
			if ar, ok := after.Routers[name]; ok {
				counts[filterSignature(ar)]++
			}
		}
		best, bestCount := "", 0
		for sig, c := range counts {
			if c > bestCount || (c == bestCount && sig < best) {
				best, bestCount = sig, c
			}
		}
		for _, name := range members {
			if ar, ok := after.Routers[name]; ok && filterSignature(ar) != best {
				violations++
			}
		}
	}
	return violations
}

// filterSignature canonically renders a router's filter sections
// (route filters + packet filters), ignoring device-specific naming of
// the router itself.
func filterSignature(r *Router) string {
	var b strings.Builder
	names := make([]string, 0, len(r.RouteFilters))
	byName := make(map[string]*RouteFilter)
	for _, f := range r.RouteFilters {
		names = append(names, f.Name)
		byName[f.Name] = f
	}
	sort.Strings(names)
	for _, name := range names {
		b.WriteString("rf " + name + "\n")
		for _, rule := range byName[name].Rules {
			b.WriteString(" " + routeRuleString(rule) + "\n")
		}
	}
	pnames := make([]string, 0, len(r.PacketFilters))
	pByName := make(map[string]*PacketFilter)
	for _, f := range r.PacketFilters {
		pnames = append(pnames, f.Name)
		pByName[f.Name] = f
	}
	sort.Strings(pnames)
	for _, name := range pnames {
		b.WriteString("pf " + name + "\n")
		for _, rule := range pByName[name].Rules {
			b.WriteString(" " + packetRuleString(rule) + "\n")
		}
	}
	return b.String()
}

// CountPacketFilterRules returns the total number of packet-filter
// rules in the network (used by the min-pfs experiments).
func CountPacketFilterRules(n *Network) int {
	total := 0
	for _, r := range n.Routers {
		for _, f := range r.PacketFilters {
			total += len(f.Rules)
		}
	}
	return total
}

// TotalLines returns the total canonical line count across routers.
func TotalLines(n *Network) int {
	total := 0
	for _, r := range n.Routers {
		total += LineCount(r)
	}
	return total
}
