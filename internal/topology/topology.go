// Package topology models the physical network AED operates on:
// routers, layer-3 links, and host-facing subnets. It also provides
// deterministic generators for the two network families in the paper's
// evaluation — datacenter fabrics (leaf–spine and folded-Clos
// "fat-tree" stand-ins for the 24 proprietary datacenter networks) and
// Topology-Zoo-like wide-area networks of 30–160 routers (stand-ins
// for the Internet Topology Zoo dataset).
package topology

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/aed-net/aed/internal/prefix"
)

// Topology is an undirected graph of routers plus host subnets hanging
// off routers.
type Topology struct {
	Name    string
	Routers []string
	links   map[[2]string]bool
	// nbrs holds each router's neighbors, sorted; AddLink keeps it.
	nbrs    map[string][]string
	Subnets []Subnet
	// Role tags routers for template grouping (e.g. "leaf", "spine").
	Role map[string]string
}

// Subnet is a group of hosts attached to a router.
type Subnet struct {
	Router string
	Prefix prefix.Prefix
}

// New returns an empty topology with the given name.
func New(name string) *Topology {
	return &Topology{
		Name:  name,
		links: make(map[[2]string]bool),
		nbrs:  make(map[string][]string),
		Role:  make(map[string]string),
	}
}

// AddRouter adds a router (idempotent) with an optional role.
func (t *Topology) AddRouter(name, role string) {
	for _, r := range t.Routers {
		if r == name {
			if role != "" {
				t.Role[name] = role
			}
			return
		}
	}
	t.Routers = append(t.Routers, name)
	if role != "" {
		t.Role[name] = role
	}
}

func linkKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// AddLink connects two existing routers (idempotent).
func (t *Topology) AddLink(a, b string) {
	if a == b {
		panic("topology: self link")
	}
	k := linkKey(a, b)
	if t.links[k] {
		return
	}
	t.links[k] = true
	t.nbrs[a] = insertSorted(t.nbrs[a], b)
	t.nbrs[b] = insertSorted(t.nbrs[b], a)
}

// insertSorted inserts x into the sorted slice s.
func insertSorted(s []string, x string) []string {
	i := sort.SearchStrings(s, x)
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// HasLink reports whether a and b are directly connected.
func (t *Topology) HasLink(a, b string) bool { return t.links[linkKey(a, b)] }

// Links returns all links in deterministic order.
func (t *Topology) Links() [][2]string {
	out := make([][2]string, 0, len(t.links))
	for k := range t.links {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Neighbors returns the routers adjacent to name, sorted. The slice is
// the topology's own index, clipped so that appending to it copies;
// callers must not write to it.
func (t *Topology) Neighbors(name string) []string {
	s := t.nbrs[name]
	return s[:len(s):len(s)]
}

// AddSubnet attaches a host subnet to a router.
func (t *Topology) AddSubnet(router string, p prefix.Prefix) {
	t.Subnets = append(t.Subnets, Subnet{Router: router, Prefix: p})
}

// SubnetsOf returns the subnets attached to a router.
func (t *Topology) SubnetsOf(router string) []prefix.Prefix {
	var out []prefix.Prefix
	for _, s := range t.Subnets {
		if s.Router == router {
			out = append(out, s.Prefix)
		}
	}
	return out
}

// RouterOfSubnet returns the router owning the subnet, or "".
func (t *Topology) RouterOfSubnet(p prefix.Prefix) string {
	for _, s := range t.Subnets {
		if s.Prefix.Equal(p) {
			return s.Router
		}
	}
	return ""
}

// NumLinks returns the link count.
func (t *Topology) NumLinks() int { return len(t.links) }

// Connected reports whether the router graph is connected.
func (t *Topology) Connected() bool {
	if len(t.Routers) == 0 {
		return true
	}
	seen := map[string]bool{t.Routers[0]: true}
	queue := []string{t.Routers[0]}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range t.Neighbors(cur) {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return len(seen) == len(t.Routers)
}

// ShortestPath returns a minimum-hop path between two routers
// (inclusive), or nil if unreachable.
func (t *Topology) ShortestPath(from, to string) []string {
	if from == to {
		return []string{from}
	}
	prev := map[string]string{from: from}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range t.Neighbors(cur) {
			if _, ok := prev[nb]; ok {
				continue
			}
			prev[nb] = cur
			if nb == to {
				var path []string
				for at := to; at != from; at = prev[at] {
					path = append([]string{at}, path...)
				}
				return append([]string{from}, path...)
			}
			queue = append(queue, nb)
		}
	}
	return nil
}

// subnetPrefix deterministically allocates the i-th host subnet:
// 10.i.0.0/24 for i < 256, then 11.(i-256).0.0/24, and so on.
func subnetPrefix(i int) prefix.Prefix {
	return prefix.Prefix{Addr: (10+uint32(i)/256)<<24 | (uint32(i)%256)<<16, Len: 24}.Canonical()
}

// LeafSpine generates a datacenter fabric with the given number of
// leaf (rack) and spine routers; every leaf connects to every spine,
// and each leaf hosts subnetsPerLeaf subnets.
func LeafSpine(leaves, spines, subnetsPerLeaf int) *Topology {
	t := New(fmt.Sprintf("leafspine-%dx%d", leaves, spines))
	for s := 0; s < spines; s++ {
		t.AddRouter(fmt.Sprintf("spine%d", s), "spine")
	}
	subnetIdx := 0
	for l := 0; l < leaves; l++ {
		leaf := fmt.Sprintf("leaf%d", l)
		t.AddRouter(leaf, "leaf")
		for s := 0; s < spines; s++ {
			t.AddLink(leaf, fmt.Sprintf("spine%d", s))
		}
		for k := 0; k < subnetsPerLeaf; k++ {
			t.AddSubnet(leaf, subnetPrefix(subnetIdx))
			subnetIdx++
		}
	}
	return t
}

// FatTree generates a k-ary folded-Clos fabric (k even): k pods of
// k/2 edge and k/2 aggregation switches, plus (k/2)^2 cores. Each edge
// router hosts one subnet.
func FatTree(k int) *Topology {
	if k%2 != 0 || k < 2 {
		panic("topology: fat-tree arity must be even and >= 2")
	}
	t := New(fmt.Sprintf("fattree-%d", k))
	half := k / 2
	for c := 0; c < half*half; c++ {
		t.AddRouter(fmt.Sprintf("core%d", c), "core")
	}
	subnetIdx := 0
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			agg := fmt.Sprintf("agg%d_%d", p, a)
			t.AddRouter(agg, "agg")
			for c := 0; c < half; c++ {
				t.AddLink(agg, fmt.Sprintf("core%d", a*half+c))
			}
		}
		for e := 0; e < half; e++ {
			edge := fmt.Sprintf("edge%d_%d", p, e)
			t.AddRouter(edge, "edge")
			for a := 0; a < half; a++ {
				t.AddLink(edge, fmt.Sprintf("agg%d_%d", p, a))
			}
			t.AddSubnet(edge, subnetPrefix(subnetIdx))
			subnetIdx++
		}
	}
	return t
}

// Zoo generates a Topology-Zoo-like WAN: a random connected sparse
// graph (spanning tree plus extra edges targeting average degree ~3,
// matching the Zoo's typical degree) with one subnet per router.
// Deterministic for a given (n, seed).
func Zoo(n int, seed int64) *Topology {
	rng := rand.New(rand.NewSource(seed))
	t := New(fmt.Sprintf("zoo-%d", n))
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
		t.AddRouter(names[i], "wan")
	}
	// Random spanning tree: connect each new node to a random prior one.
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		t.AddLink(names[i], names[j])
	}
	// Extra edges to reach average degree ~3 (n*3/2 total edges).
	target := n * 3 / 2
	for t.NumLinks() < target {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			t.AddLink(names[a], names[b])
		}
	}
	for i, name := range names {
		t.AddSubnet(name, subnetPrefix(i))
	}
	return t
}

// Line generates a chain r0-r1-...-r(n-1) with a subnet at each end,
// useful for unit tests.
func Line(n int) *Topology {
	t := New(fmt.Sprintf("line-%d", n))
	for i := 0; i < n; i++ {
		t.AddRouter(fmt.Sprintf("r%d", i), "node")
		if i > 0 {
			t.AddLink(fmt.Sprintf("r%d", i-1), fmt.Sprintf("r%d", i))
		}
	}
	t.AddSubnet("r0", subnetPrefix(0))
	t.AddSubnet(fmt.Sprintf("r%d", n-1), subnetPrefix(1))
	return t
}

// Diamond generates the four-router topology of the paper's Figure 1:
// A at the top, B and C in the middle, D at the bottom, with hosts on
// A (1.0.0.0/16), B (2.0.0.0/16) and D (3.0.0.0/16 and 4.0.0.0/16).
func Diamond() *Topology {
	t := New("figure1")
	for _, r := range []string{"A", "B", "C", "D"} {
		t.AddRouter(r, "node")
	}
	t.AddLink("A", "B")
	t.AddLink("A", "C")
	t.AddLink("B", "D")
	t.AddLink("C", "D")
	t.AddLink("B", "C")
	t.AddSubnet("A", prefix.MustParse("1.0.0.0/16"))
	t.AddSubnet("B", prefix.MustParse("2.0.0.0/16"))
	t.AddSubnet("D", prefix.MustParse("3.0.0.0/16"))
	t.AddSubnet("D", prefix.MustParse("4.0.0.0/16"))
	return t
}
