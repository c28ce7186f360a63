package config

import (
	"fmt"
	"sort"
	"strings"
)

// ReferenceDiff is the whole-network diff that Diff's section walk
// replaced, kept as a test oracle: both syntax trees are rendered in
// full and their leaf sets compared.
func ReferenceDiff(before, after *Network) *DiffStats {
	stats := &DiffStats{PerDevice: make(map[string]int)}
	bLeaves := referenceLeafSet(before)
	aLeaves := referenceLeafSet(after)
	for path, bline := range bLeaves {
		if aline, ok := aLeaves[path]; !ok {
			stats.LinesRemoved++
			stats.RemovedPaths = append(stats.RemovedPaths, path)
			stats.PerDevice[routerOfPath(path)]++
		} else if aline != bline {
			stats.LinesRemoved++
			stats.LinesAdded++
			stats.RemovedPaths = append(stats.RemovedPaths, path)
			stats.AddedPaths = append(stats.AddedPaths, path)
			stats.PerDevice[routerOfPath(path)] += 2
		}
	}
	for path := range aLeaves {
		if _, ok := bLeaves[path]; !ok {
			stats.LinesAdded++
			stats.AddedPaths = append(stats.AddedPaths, path)
			stats.PerDevice[routerOfPath(path)]++
		}
	}
	stats.DevicesChanged = len(stats.PerDevice)
	sort.Strings(stats.AddedPaths)
	sort.Strings(stats.RemovedPaths)
	return stats
}

func referenceLeafSet(n *Network) map[string]string {
	out := make(map[string]string)
	tree := Tree(n)
	occ := make(map[string]int)
	for _, leaf := range tree.Leaves() {
		if len(leaf.Children) > 0 {
			continue
		}
		path := leaf.Path()
		if leaf.Type == NodeRule {
			base := leaf.Parent().Path() + "/Rule{" + leaf.Attr("line") + "}"
			occ[base]++
			path = fmt.Sprintf("%s#%d", base, occ[base])
			out[path] = base
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

// Rendering hooks for the fmt-comparison tests.
var (
	RouteRuleString  = routeRuleString
	PacketRuleString = packetRuleString
)
