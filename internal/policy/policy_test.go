package policy

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/aed-net/aed/internal/prefix"
)

func TestParseOneRoundTrip(t *testing.T) {
	lines := []string{
		"reach 10.0.0.0/24 -> 10.1.0.0/24",
		"block 10.0.0.0/24 -> 10.2.0.0/24",
		"waypoint 10.0.0.0/24 -> 10.1.0.0/24 via fw1",
		"prefer 10.0.0.0/24 -> 10.1.0.0/24 via r2 over r3",
		"isolate 10.0.0.0/24 -> 10.3.0.0/24",
		"maxlen 10.0.0.0/24 -> 10.1.0.0/24 <= 3",
	}
	for _, line := range lines {
		p, err := ParseOne(line)
		if err != nil {
			t.Fatalf("ParseOne(%q): %v", line, err)
		}
		if p.String() != line {
			t.Errorf("round trip: %q -> %q", line, p.String())
		}
	}
}

func TestParseOneErrors(t *testing.T) {
	bad := []string{
		"",
		"reach 10.0.0.0/24 10.1.0.0/24",
		"fly 10.0.0.0/24 -> 10.1.0.0/24",
		"reach bad -> 10.1.0.0/24",
		"reach 10.0.0.0/24 -> bad",
		"waypoint 10.0.0.0/24 -> 10.1.0.0/24",
		"prefer 10.0.0.0/24 -> 10.1.0.0/24 via r2",
		"reach 10.0.0.0/24 -> 10.1.0.0/24 extra",
		"maxlen 10.0.0.0/24 -> 10.1.0.0/24",
		"maxlen 10.0.0.0/24 -> 10.1.0.0/24 <= 0",
		"maxlen 10.0.0.0/24 -> 10.1.0.0/24 <= x",
	}
	for _, line := range bad {
		if _, err := ParseOne(line); err == nil {
			t.Errorf("ParseOne(%q) should fail", line)
		}
	}
}

func TestParseMultiWithComments(t *testing.T) {
	text := `# header comment
reach 10.0.0.0/24 -> 10.1.0.0/24

block 10.0.0.0/24 -> 10.2.0.0/24
`
	ps, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("got %d policies", len(ps))
	}
	if Format(ps) != "reach 10.0.0.0/24 -> 10.1.0.0/24\nblock 10.0.0.0/24 -> 10.2.0.0/24\n" {
		t.Errorf("Format = %q", Format(ps))
	}
	if _, err := Parse("reach x -> y"); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Error("parse errors should carry line numbers")
	}
}

func TestGroupByDestination(t *testing.T) {
	ps, _ := Parse(`reach 10.0.0.0/24 -> 10.1.0.0/24
block 10.2.0.0/24 -> 10.1.0.0/24
reach 10.0.0.0/24 -> 10.3.0.0/24
isolate 10.4.0.0/24 -> 10.5.0.0/24
`)
	groups := GroupByDestination(ps)
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(groups))
	}
	d1 := prefix.MustParse("10.1.0.0/24")
	if len(groups[d1]) != 2 {
		t.Errorf("dest 10.1/24 should have 2 policies")
	}
	// Isolation expands to blocking in both directions.
	d5 := prefix.MustParse("10.5.0.0/24")
	d4 := prefix.MustParse("10.4.0.0/24")
	if len(groups[d5]) != 1 || groups[d5][0].Kind != Blocking {
		t.Error("isolation must appear as blocking toward 10.5/24")
	}
	if len(groups[d4]) != 1 || groups[d4][0].Kind != Blocking {
		t.Error("isolation must appear as blocking toward 10.4/24")
	}
	dests := Destinations(ps)
	if len(dests) != 4 {
		t.Errorf("destinations = %v", dests)
	}
	for i := 1; i < len(dests); i++ {
		if dests[i-1].Compare(dests[i]) >= 0 {
			t.Error("destinations must be sorted")
		}
	}
}

func TestSubdividePoliciesDisjointPassThrough(t *testing.T) {
	ps, _ := Parse("reach 10.0.0.0/24 -> 10.1.0.0/24\nblock 10.2.0.0/24 -> 10.3.0.0/24\n")
	out := SubdividePolicies(ps)
	if len(out) != 2 {
		t.Fatalf("disjoint policies must pass through, got %d", len(out))
	}
}

func TestSubdividePoliciesOverlap(t *testing.T) {
	// 10.0.0.0/23 overlaps 10.0.0.0/24.
	ps, _ := Parse("reach 10.0.0.0/23 -> 10.2.0.0/24\nblock 10.0.0.0/24 -> 10.2.0.0/24\n")
	out := SubdividePolicies(ps)
	// The /23 source splits into two /24s; the block stays on one /24.
	var reachCount int
	for _, p := range out {
		if p.Kind == Reachability {
			reachCount++
			if p.Src.Len != 24 {
				t.Errorf("subdivided source should be /24, got %s", p.Src)
			}
		}
	}
	if reachCount != 2 {
		t.Errorf("reach should subdivide into 2 atoms, got %d", reachCount)
	}
}

func TestDedupAndSort(t *testing.T) {
	ps, _ := Parse(`reach 10.0.0.0/24 -> 10.1.0.0/24
reach 10.0.0.0/24 -> 10.1.0.0/24
block 10.0.0.0/24 -> 10.1.0.0/24
`)
	out := Dedup(ps)
	if len(out) != 2 {
		t.Fatalf("dedup: %d", len(out))
	}
	Sort(out)
	if out[0].Kind != Reachability {
		t.Error("reach sorts before block")
	}
}

// TestDedupMatchesStringKeys checks Dedup against deduplication keyed
// on String, on random policies drawn from a small space so duplicates
// are common: prefixes with and without host bits, every kind and one
// unknown one, and Via, Avoid and MaxLen set on kinds that do not
// print them.
func TestDedupMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	pfx := func() prefix.Prefix {
		return prefix.Prefix{Addr: 10<<24 | uint32(rng.Intn(2))<<16 | uint32(rng.Intn(3)), Len: []int{16, 24, 30}[rng.Intn(3)]}
	}
	names := []string{"", "r1", "r2"}
	for iter := range 300 {
		ps := make([]Policy, 1+rng.Intn(40))
		for i := range ps {
			ps[i] = Policy{
				Kind: Kind(rng.Intn(8)), Src: pfx(), Dst: pfx(),
				Via: names[rng.Intn(3)], Avoid: names[rng.Intn(3)], MaxLen: rng.Intn(3),
			}
		}
		var want []Policy
		seen := map[string]bool{}
		for _, p := range ps {
			if k := p.String(); !seen[k] {
				seen[k] = true
				want = append(want, p)
			}
		}
		if got := Dedup(ps); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: Dedup kept %v, String keys keep %v", iter, got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		Reachability: "reach", Blocking: "block", Waypoint: "waypoint",
		PathPreference: "prefer", Isolation: "isolate",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%v.String() = %q", int(k), k.String())
		}
	}
}
