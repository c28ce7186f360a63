package config

import (
	"cmp"
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
// contents differ, as sorted path -> line lists compared by a merge. A
// router present on one side only, or with no sections on one side
// (an empty router is itself a leaf line), is rendered whole. If any
// router is stored under a key other than its name, or its name
// contains '/', leaf paths could cross routers, and Diff falls back to
// rendering both networks whole.
func Diff(before, after *Network) *DiffStats {
	d := &differ{stats: &DiffStats{PerDevice: make(map[string]int)}}
	if !sectionDiffable(before) || !sectionDiffable(after) {
		d.b.network(before)
		d.a.network(after)
		d.compare()
	} else {
		for name, b := range before.Routers {
			d.router(b, after.Routers[name])
		}
		for name, a := range after.Routers {
			if _, ok := before.Routers[name]; !ok {
				d.router(nil, a)
			}
		}
	}
	stats := d.stats
	stats.DevicesChanged = len(stats.PerDevice)
	sort.Strings(stats.AddedPaths)
	sort.Strings(stats.RemovedPaths)
	return stats
}

// differ holds one Diff call's result and the scratch its renderings
// reuse: b and a render the before and after side of one comparison.
type differ struct {
	stats        *DiffStats
	b, a         lineBuf
	bKeys, aKeys []keyed
}

// compare adds the difference between the leaves rendered into d.b and
// d.a, and empties both.
func (d *differ) compare() {
	b, a := d.b.sorted(), d.a.sorted()
	s := d.stats
	for len(b) > 0 || len(a) > 0 {
		switch {
		case len(a) == 0 || len(b) > 0 && b[0].path < a[0].path:
			s.LinesRemoved++
			s.RemovedPaths = append(s.RemovedPaths, b[0].path)
			s.PerDevice[routerOfPath(b[0].path)]++
			b = b[1:]
		case len(b) == 0 || a[0].path < b[0].path:
			s.LinesAdded++
			s.AddedPaths = append(s.AddedPaths, a[0].path)
			s.PerDevice[routerOfPath(a[0].path)]++
			a = a[1:]
		default:
			if b[0].line != a[0].line {
				s.LinesRemoved++
				s.LinesAdded++
				s.RemovedPaths = append(s.RemovedPaths, b[0].path)
				s.AddedPaths = append(s.AddedPaths, a[0].path)
				s.PerDevice[routerOfPath(b[0].path)] += 2
			}
			b, a = b[1:], a[1:]
		}
	}
	d.b.reset()
	d.a.reset()
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

// router adds the difference between two versions of one router;
// either may be nil (the router was added or removed).
func (d *differ) router(b, a *Router) {
	if b == nil || a == nil || b.sectionless() || a.sectionless() {
		d.b.router(b)
		d.a.router(a)
		d.compare()
		return
	}
	diffSections(d, b.Name, b.Interfaces, a.Interfaces,
		func(i *Interface) sectionKey { return sectionKey{name: i.Name} },
		func(x, y *Interface) bool { return *x == *y }, (*lineBuf).iface)
	diffSections(d, b.Name, b.Processes, a.Processes,
		func(p *Process) sectionKey { return sectionKey{name: p.Protocol.String(), num: p.ID} },
		processEqual, (*lineBuf).process)
	diffSections(d, b.Name, b.RouteFilters, a.RouteFilters,
		func(f *RouteFilter) sectionKey { return sectionKey{name: f.Name} },
		func(x, y *RouteFilter) bool { return x.Name == y.Name && ptrsEqual(x.Rules, y.Rules) },
		(*lineBuf).routeFilter)
	diffSections(d, b.Name, b.PacketFilters, a.PacketFilters,
		func(f *PacketFilter) sectionKey { return sectionKey{name: f.Name} },
		func(x, y *PacketFilter) bool { return x.Name == y.Name && ptrsEqual(x.Rules, y.Rules) },
		(*lineBuf).packetFilter)
	diffSections(d, b.Name, b.StaticRoutes, a.StaticRoutes,
		func(s *StaticRoute) sectionKey { return sectionKey{num: s.Prefix.Len, addr: s.Prefix.First()} },
		func(x, y *StaticRoute) bool { return *x == *y }, (*lineBuf).static)
}

func (r *Router) sectionless() bool {
	return len(r.Interfaces) == 0 && len(r.Processes) == 0 && len(r.RouteFilters) == 0 &&
		len(r.PacketFilters) == 0 && len(r.StaticRoutes) == 0
}

// sectionKey identifies the path segment a section renders under
// within its kind: the interface or filter name, protocol name and
// process ID, or a static route's masked prefix.
type sectionKey struct {
	name string
	num  int
	addr uint32
}

// keyed is one section's key and its index in the router's list.
type keyed struct {
	key sectionKey
	i   int
}

func compareKeyed(x, y keyed) int {
	if c := strings.Compare(x.key.name, y.key.name); c != 0 {
		return c
	}
	if c := cmp.Compare(x.key.num, y.key.num); c != 0 {
		return c
	}
	if c := cmp.Compare(x.key.addr, y.key.addr); c != 0 {
		return c
	}
	return cmp.Compare(x.i, y.i)
}

// diffSections diffs one kind of section of a router. Sections with
// the same key render to overlapping paths, so they are compared and
// rendered together, in model order, which keeps duplicate keys and
// rule-occurrence counting exactly as in the whole-tree rendering. The
// groups are found by sorting both sides' keys and merging them.
func diffSections[T any](d *differ, router string, b, a []T,
	key func(T) sectionKey, equal func(x, y T) bool, render func(*lineBuf, string, T)) {
	if sectionsEqual(b, a, equal) {
		return
	}
	sortKeys := func(ks []keyed, xs []T) []keyed {
		ks = ks[:0]
		for i, x := range xs {
			ks = append(ks, keyed{key(x), i})
		}
		slices.SortFunc(ks, compareKeyed)
		return ks
	}
	d.bKeys, d.aKeys = sortKeys(d.bKeys, b), sortKeys(d.aKeys, a)
	bk, ak := d.bKeys, d.aKeys
	for len(bk) > 0 || len(ak) > 0 {
		var k sectionKey
		switch {
		case len(ak) == 0:
			k = bk[0].key
		case len(bk) == 0 || compareKeyed(ak[0], bk[0]) < 0:
			k = ak[0].key
		default:
			k = bk[0].key
		}
		nb, na := run(bk, k), run(ak, k)
		if !runsEqual(b, a, bk[:nb], ak[:na], equal) {
			for _, x := range bk[:nb] {
				render(&d.b, router, b[x.i])
			}
			for _, x := range ak[:na] {
				render(&d.a, router, a[x.i])
			}
			d.compare()
		}
		bk, ak = bk[nb:], ak[na:]
	}
}

// run returns how many leading entries of ks carry key k.
func run(ks []keyed, k sectionKey) int {
	n := 0
	for n < len(ks) && ks[n].key == k {
		n++
	}
	return n
}

func runsEqual[T any](b, a []T, bk, ak []keyed, equal func(x, y T) bool) bool {
	if len(bk) != len(ak) {
		return false
	}
	for i := range bk {
		if !equal(b[bk[i].i], a[ak[i].i]) {
			return false
		}
	}
	return true
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

// leaf is one configuration line of a rendering: its syntax-tree path
// and its text. A filter rule is identified by its parent path and
// content and by its occurrence among equal rules
// (".../Rule{line}#k"), not by its index, so inserting a rule counts
// as one added line instead of rewriting every rule it shifts
// (matching textual diff semantics); its line is the path without
// "#k".
type leaf struct {
	path, line string
	seq        int  // emission order
	rule       bool // path is ".../Rule{line}" until sorted numbers it
}

// lineBuf renders the leaves of one side of a comparison straight from
// the model, in the order the syntax tree lists them.
type lineBuf struct {
	leaves []leaf
	rules  bool
	path   []byte // the path of the node being rendered
	w      attrWriter
}

func (lb *lineBuf) reset() {
	clear(lb.leaves)
	lb.leaves = lb.leaves[:0]
	lb.rules = false
}

// sorted returns the rendered leaves sorted by path: each rule's
// occurrence number counts the equal rules before it under the same
// parent, and of leaves sharing a path the last rendered stands, as
// in a path -> line map of the whole tree.
func (lb *lineBuf) sorted() []leaf {
	ls := lb.leaves
	byPath := func(x, y leaf) int {
		if c := strings.Compare(x.path, y.path); c != 0 {
			return c
		}
		return cmp.Compare(x.seq, y.seq)
	}
	if lb.rules {
		slices.SortFunc(ls, byPath)
		for i := 0; i < len(ls); {
			j, k := i+1, 0
			for j < len(ls) && ls[j].path == ls[i].path {
				j++
			}
			for m := i; m < j; m++ {
				if l := &ls[m]; l.rule {
					k++
					base := l.path
					l.path = base + "#" + strconv.Itoa(k)
					l.line = l.path[:len(base)]
				}
			}
			i = j
		}
	}
	slices.SortFunc(ls, byPath)
	out := ls[:0]
	for i, l := range ls {
		if i+1 < len(ls) && ls[i+1].path == l.path {
			continue
		}
		out = append(out, l)
	}
	return out
}

// addLeaf records a leaf at lb.path whose line is typ and x's
// attributes.
func addLeaf[T any](lb *lineBuf, typ string, attrs func(*attrWriter, T), x T) {
	n := len(lb.path)
	lb.w.line = append(append(lb.w.line[:0], lb.path...), typ...)
	attrs(&lb.w, x)
	s := string(lb.w.line)
	lb.leaves = append(lb.leaves, leaf{path: s[:n], line: s[n:], seq: len(lb.leaves)})
}

// addRule records the rule leaf whose base path is lb.path.
func (lb *lineBuf) addRule() {
	lb.rules = true
	lb.leaves = append(lb.leaves, leaf{path: string(lb.path), seq: len(lb.leaves), rule: true})
}

// under starts lb.path at a section of router.
func (lb *lineBuf) under(router string) []byte {
	return append(append(lb.path[:0], router...), '/')
}

// network renders every router, in name order, as Tree does.
func (lb *lineBuf) network(n *Network) {
	for _, name := range n.RouterNames() {
		lb.router(n.Routers[name])
	}
}

// router renders one whole router; nil renders nothing.
func (lb *lineBuf) router(r *Router) {
	switch {
	case r == nil:
	case r.sectionless():
		lb.path = append(lb.path[:0], r.Name...)
		addLeaf(lb, NodeRouter, routerAttrs, r)
	default:
		for _, x := range r.Interfaces {
			lb.iface(r.Name, x)
		}
		for _, x := range r.Processes {
			lb.process(r.Name, x)
		}
		for _, x := range r.RouteFilters {
			lb.routeFilter(r.Name, x)
		}
		for _, x := range r.PacketFilters {
			lb.packetFilter(r.Name, x)
		}
		for _, x := range r.StaticRoutes {
			lb.static(r.Name, x)
		}
	}
}

func (lb *lineBuf) iface(router string, i *Interface) {
	lb.path = appendInterfaceSeg(lb.under(router), i)
	addLeaf(lb, NodeInterface, interfaceAttrs, i)
}

func (lb *lineBuf) process(router string, p *Process) {
	lb.path = appendProcessSeg(lb.under(router), p)
	if len(p.Adjacencies) == 0 && len(p.Originations) == 0 && len(p.Redistribute) == 0 {
		addLeaf(lb, NodeProcess, processAttrs, p)
		return
	}
	parent := len(lb.path)
	for _, a := range p.Adjacencies {
		lb.path = appendAdjacencySeg(append(lb.path[:parent], '/'), a)
		addLeaf(lb, NodeAdjacency, adjacencyAttrs, a)
	}
	for _, o := range p.Originations {
		lb.path = appendOriginationSeg(append(lb.path[:parent], '/'), o)
		addLeaf(lb, NodeOrigination, originationAttrs, o)
	}
	for _, rd := range p.Redistribute {
		lb.path = appendRedistributionSeg(append(lb.path[:parent], '/'), rd)
		addLeaf(lb, NodeRedistribution, redistributionAttrs, rd)
	}
}

func (lb *lineBuf) routeFilter(router string, f *RouteFilter) {
	lb.path = appendSeg(lb.under(router), NodeRouteFilter, f.Name)
	if len(f.Rules) == 0 {
		addLeaf(lb, NodeRouteFilter, filterAttrs, f.Name)
		return
	}
	parent := len(lb.path)
	for _, r := range f.Rules {
		lb.path = append(appendRouteRule(append(lb.path[:parent], "/Rule{"...), r), '}')
		lb.addRule()
	}
}

func (lb *lineBuf) packetFilter(router string, f *PacketFilter) {
	lb.path = appendSeg(lb.under(router), NodePacketFilter, f.Name)
	if len(f.Rules) == 0 {
		addLeaf(lb, NodePacketFilter, filterAttrs, f.Name)
		return
	}
	parent := len(lb.path)
	for _, r := range f.Rules {
		lb.path = append(appendPacketRule(append(lb.path[:parent], "/Rule{"...), r), '}')
		lb.addRule()
	}
}

func (lb *lineBuf) static(router string, s *StaticRoute) {
	lb.path = appendStaticSeg(lb.under(router), s)
	addLeaf(lb, NodeStaticRoute, staticAttrs, s)
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
