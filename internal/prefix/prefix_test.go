package prefix

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"10.0.0.0/8", "10.0.0.0/8"},
		{"10.1.2.3/8", "10.0.0.0/8"}, // host bits cleared
		{"192.168.42.1/24", "192.168.42.0/24"},
		{"1.2.3.4", "1.2.3.4/32"},
		{"0.0.0.0/0", "0.0.0.0/0"},
		{"255.255.255.255/32", "255.255.255.255/32"},
	}
	for _, c := range cases {
		p, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := p.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.0/8", "1.2.3.4/33",
		"1.2.3.4/-1", "a.b.c.d/8", "1.2.3.4/x", "01.2.3.4/8"}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestCoversAndOverlaps(t *testing.T) {
	p8 := MustParse("10.0.0.0/8")
	p16 := MustParse("10.1.0.0/16")
	q16 := MustParse("11.0.0.0/16")
	if !p8.Covers(p16) {
		t.Error("10/8 should cover 10.1/16")
	}
	if p16.Covers(p8) {
		t.Error("10.1/16 should not cover 10/8")
	}
	if !p8.Overlaps(p16) || !p16.Overlaps(p8) {
		t.Error("10/8 and 10.1/16 should overlap")
	}
	if p8.Overlaps(q16) {
		t.Error("10/8 and 11.0/16 should not overlap")
	}
	def := Prefix{}
	if !def.Covers(p8) || !def.IsDefault() {
		t.Error("default route should cover everything")
	}
}

func TestContains(t *testing.T) {
	p := MustParse("192.168.42.0/24")
	lo, _ := ParseAddr("192.168.42.0")
	hi, _ := ParseAddr("192.168.42.255")
	out, _ := ParseAddr("192.168.43.0")
	if !p.Contains(lo) || !p.Contains(hi) {
		t.Error("prefix must contain its first and last address")
	}
	if p.Contains(out) {
		t.Error("prefix must not contain address outside it")
	}
	if p.First() != lo || p.Last() != hi {
		t.Errorf("First/Last = %s/%s", FormatAddr(p.First()), FormatAddr(p.Last()))
	}
}

func TestHalves(t *testing.T) {
	p := MustParse("10.0.0.0/8")
	lo, hi := p.Halves()
	if lo.String() != "10.0.0.0/9" || hi.String() != "10.128.0.0/9" {
		t.Errorf("Halves = %s, %s", lo, hi)
	}
	if !p.Covers(lo) || !p.Covers(hi) || lo.Overlaps(hi) {
		t.Error("halves must partition the parent")
	}
	defer func() {
		if recover() == nil {
			t.Error("Halves on /32 should panic")
		}
	}()
	MustParse("1.2.3.4/32").Halves()
}

func TestCompareAndSort(t *testing.T) {
	ps := []Prefix{
		MustParse("10.1.0.0/16"),
		MustParse("10.0.0.0/8"),
		MustParse("9.0.0.0/8"),
		MustParse("10.0.0.0/16"),
	}
	Sort(ps)
	want := []string{"9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/16"}
	for i, w := range want {
		if ps[i].String() != w {
			t.Fatalf("sorted[%d] = %s, want %s", i, ps[i], w)
		}
	}
}

func TestDedup(t *testing.T) {
	ps := []Prefix{MustParse("10.0.0.0/8"), MustParse("10.3.4.5/8"), MustParse("11.0.0.0/8")}
	out := Dedup(ps)
	if len(out) != 2 {
		t.Fatalf("Dedup: got %d prefixes, want 2: %v", len(out), out)
	}
}

func TestAtomsDisjointAndCovering(t *testing.T) {
	in := []Prefix{
		MustParse("10.0.0.0/8"),
		MustParse("10.1.0.0/16"),
		MustParse("10.1.128.0/17"),
		MustParse("20.0.0.0/8"),
	}
	atoms := Atoms(in)
	if !Disjoint(atoms) {
		t.Fatalf("atoms not disjoint: %v", atoms)
	}
	// Every input must be exactly a union of atoms: total addresses match.
	for _, p := range in {
		covered := CoveringAtoms(p, atoms)
		var total uint64
		for _, a := range covered {
			total += uint64(a.Last()-a.First()) + 1
		}
		want := uint64(p.Last()-p.First()) + 1
		if total != want {
			t.Errorf("atom union of %s covers %d addrs, want %d", p, total, want)
		}
	}
}

func TestAtomsNoOverlapInputs(t *testing.T) {
	in := []Prefix{MustParse("1.0.0.0/16"), MustParse("2.0.0.0/16")}
	atoms := Atoms(in)
	if len(atoms) != 2 {
		t.Fatalf("disjoint inputs should be their own atoms, got %v", atoms)
	}
}

func TestAtomsEmpty(t *testing.T) {
	if got := Atoms(nil); len(got) != 0 {
		t.Fatalf("Atoms(nil) = %v", got)
	}
}

// Property: parsing the string form round-trips.
func TestQuickRoundTrip(t *testing.T) {
	f := func(addr uint32, lenSeed uint8) bool {
		p := Prefix{Addr: addr, Len: int(lenSeed % 33)}.Canonical()
		q, err := Parse(p.String())
		return err == nil && q.Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Covers is a partial order consistent with Overlaps.
func TestQuickCoversOverlaps(t *testing.T) {
	f := func(a, b uint32, la, lb uint8) bool {
		p := Prefix{Addr: a, Len: int(la % 33)}.Canonical()
		q := Prefix{Addr: b, Len: int(lb % 33)}.Canonical()
		if p.Covers(q) && q.Covers(p) && !p.Equal(q) {
			return false
		}
		if p.Covers(q) && !p.Overlaps(q) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: atoms of random prefix sets are always disjoint and cover
// each input exactly.
func TestQuickAtoms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(6)
		in := make([]Prefix, n)
		for i := range in {
			// Small universe so overlaps are common.
			in[i] = Prefix{
				Addr: uint32(rng.Intn(4)) << 28,
				Len:  2 + rng.Intn(8),
			}.Canonical()
		}
		atoms := Atoms(in)
		if !Disjoint(atoms) {
			t.Fatalf("iter %d: atoms overlap: in=%v atoms=%v", iter, in, atoms)
		}
		for _, p := range in {
			var total uint64
			for _, a := range CoveringAtoms(p, atoms) {
				total += uint64(a.Last()-a.First()) + 1
			}
			if want := uint64(p.Last()-p.First()) + 1; total != want {
				t.Fatalf("iter %d: %s covered %d want %d (in=%v atoms=%v)",
					iter, p, total, want, in, atoms)
			}
		}
	}
}

// TestStringMatchesFmt pins the hand-written renderers to the fmt
// formatting they replaced: every length 0–32, random addresses with
// host bits set, and out-of-range lengths.
func TestStringMatchesFmt(t *testing.T) {
	ref := func(p Prefix) string {
		a := p.First()
		return fmt.Sprintf("%d.%d.%d.%d/%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a), p.Len)
	}
	rng := rand.New(rand.NewSource(7))
	addrs := []uint32{0, 0xffffffff, 0x0a000001, 0x80000000, 0x01020304}
	for i := 0; i < 200; i++ {
		addrs = append(addrs, rng.Uint32())
	}
	lens := []int{-1, -32, 33, 64, 1 << 20}
	for l := 0; l <= 32; l++ {
		lens = append(lens, l)
	}
	for _, a := range addrs {
		if got, want := FormatAddr(a), fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a)); got != want {
			t.Fatalf("FormatAddr(%#x) = %q, want %q", a, got, want)
		}
		for _, l := range lens {
			p := Prefix{Addr: a, Len: l}
			if got, want := p.String(), ref(p); got != want {
				t.Fatalf("Prefix{%#x, %d}.String() = %q, want %q", a, l, got, want)
			}
		}
	}
}
