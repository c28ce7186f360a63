package topology

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/aed-net/aed/internal/prefix"
)

func TestAddRouterAndLink(t *testing.T) {
	top := New("t")
	top.AddRouter("a", "leaf")
	top.AddRouter("b", "spine")
	top.AddRouter("a", "") // idempotent
	if len(top.Routers) != 2 {
		t.Fatalf("routers = %d", len(top.Routers))
	}
	top.AddLink("a", "b")
	top.AddLink("b", "a") // same link
	if top.NumLinks() != 1 {
		t.Fatalf("links = %d", top.NumLinks())
	}
	if !top.HasLink("a", "b") || !top.HasLink("b", "a") {
		t.Error("HasLink should be symmetric")
	}
	if nbs := top.Neighbors("a"); len(nbs) != 1 || nbs[0] != "b" {
		t.Errorf("neighbors = %v", nbs)
	}
	defer func() {
		if recover() == nil {
			t.Error("self link should panic")
		}
	}()
	top.AddLink("a", "a")
}

func TestSubnets(t *testing.T) {
	top := New("t")
	top.AddRouter("a", "")
	p := prefix.MustParse("10.1.0.0/24")
	top.AddSubnet("a", p)
	if got := top.SubnetsOf("a"); len(got) != 1 || !got[0].Equal(p) {
		t.Errorf("SubnetsOf = %v", got)
	}
	if top.RouterOfSubnet(p) != "a" {
		t.Error("RouterOfSubnet wrong")
	}
	if top.RouterOfSubnet(prefix.MustParse("11.0.0.0/24")) != "" {
		t.Error("unknown subnet should return empty")
	}
}

func TestConnectedAndShortestPath(t *testing.T) {
	top := Line(5)
	if !top.Connected() {
		t.Error("line must be connected")
	}
	path := top.ShortestPath("r0", "r4")
	if len(path) != 5 || path[0] != "r0" || path[4] != "r4" {
		t.Errorf("path = %v", path)
	}
	if p := top.ShortestPath("r2", "r2"); len(p) != 1 {
		t.Errorf("self path = %v", p)
	}
	top2 := New("t")
	top2.AddRouter("x", "")
	top2.AddRouter("y", "")
	if top2.Connected() {
		t.Error("two isolated routers are not connected")
	}
	if top2.ShortestPath("x", "y") != nil {
		t.Error("unreachable must return nil")
	}
}

func TestLeafSpine(t *testing.T) {
	top := LeafSpine(4, 2, 2)
	if len(top.Routers) != 6 {
		t.Fatalf("routers = %d, want 6", len(top.Routers))
	}
	if top.NumLinks() != 8 {
		t.Errorf("links = %d, want 8", top.NumLinks())
	}
	if len(top.Subnets) != 8 {
		t.Errorf("subnets = %d, want 8", len(top.Subnets))
	}
	if !top.Connected() {
		t.Error("leaf-spine must be connected")
	}
	if top.Role["leaf0"] != "leaf" || top.Role["spine0"] != "spine" {
		t.Error("roles not assigned")
	}
	// Leaves never connect to leaves.
	if top.HasLink("leaf0", "leaf1") {
		t.Error("leaf-leaf link should not exist")
	}
}

func TestFatTree(t *testing.T) {
	top := FatTree(4)
	// k=4: 4 cores, 8 agg, 8 edge = 20 routers.
	if len(top.Routers) != 20 {
		t.Fatalf("routers = %d, want 20", len(top.Routers))
	}
	if !top.Connected() {
		t.Error("fat-tree must be connected")
	}
	if len(top.Subnets) != 8 {
		t.Errorf("subnets = %d, want 8", len(top.Subnets))
	}
	defer func() {
		if recover() == nil {
			t.Error("odd arity should panic")
		}
	}()
	FatTree(3)
}

func TestZooDeterminismAndShape(t *testing.T) {
	a := Zoo(30, 7)
	b := Zoo(30, 7)
	if len(a.Routers) != 30 || len(a.Subnets) != 30 {
		t.Fatalf("routers=%d subnets=%d", len(a.Routers), len(a.Subnets))
	}
	if !a.Connected() {
		t.Error("zoo must be connected")
	}
	al, bl := a.Links(), b.Links()
	if len(al) != len(bl) {
		t.Fatal("same seed must give same topology")
	}
	for i := range al {
		if al[i] != bl[i] {
			t.Fatal("same seed must give identical links")
		}
	}
	c := Zoo(30, 8)
	cl := c.Links()
	same := len(cl) == len(al)
	if same {
		for i := range al {
			if al[i] != cl[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds should give different graphs")
	}
	if a.NumLinks() < 30 {
		t.Errorf("links = %d, expected >= n for degree ~3", a.NumLinks())
	}
}

func TestDiamond(t *testing.T) {
	top := Diamond()
	if len(top.Routers) != 4 || len(top.Subnets) != 4 {
		t.Fatal("figure-1 shape wrong")
	}
	if !top.HasLink("A", "B") || !top.HasLink("C", "D") {
		t.Error("missing expected links")
	}
	if top.RouterOfSubnet(prefix.MustParse("1.0.0.0/16")) != "A" {
		t.Error("subnet 1/16 should be on A")
	}
}

func TestLinksSorted(t *testing.T) {
	top := Zoo(10, 3)
	links := top.Links()
	for i := 1; i < len(links); i++ {
		if links[i-1][0] > links[i][0] ||
			(links[i-1][0] == links[i][0] && links[i-1][1] > links[i][1]) {
			t.Fatal("links not sorted")
		}
	}
}

// TestNeighborsIndexMatchesScan checks the neighbor index AddLink keeps
// against scanning every link and sorting, on random Zoo, leaf-spine
// and line topologies with every link also added a second time, in
// reverse (AddLink is idempotent), and checks that appends to two
// returned slices do not share storage.
func TestNeighborsIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 30; iter++ {
		var top *Topology
		switch iter % 3 {
		case 0:
			top = Zoo(4+rng.Intn(40), rng.Int63())
		case 1:
			top = LeafSpine(1+rng.Intn(8), 1+rng.Intn(4), 1)
		default:
			top = Line(2 + rng.Intn(10))
		}
		for _, l := range top.Links() {
			top.AddLink(l[1], l[0])
		}
		for _, r := range top.Routers {
			var want []string
			for _, l := range top.Links() {
				if l[0] == r {
					want = append(want, l[1])
				} else if l[1] == r {
					want = append(want, l[0])
				}
			}
			sort.Strings(want)
			got := top.Neighbors(r)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Neighbors(%s) = %v, scan gives %v", top.Name, r, got, want)
			}
			x := append(top.Neighbors(r), "x")
			y := append(top.Neighbors(r), "y")
			if x[len(x)-1] != "x" || y[len(y)-1] != "y" {
				t.Fatalf("%s: two appends to Neighbors(%s) share storage", top.Name, r)
			}
		}
	}
}
