// Package prefix provides IPv4 prefix arithmetic used throughout AED:
// parsing, containment and overlap tests, enumeration helpers, and the
// subdivision of possibly-overlapping prefixes into packet equivalence
// classes (atoms), as used when multiple forwarding policies cover
// partially overlapping traffic.
package prefix

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Prefix is an IPv4 prefix in canonical form: the low (32-Len) bits of
// Addr are zero. The zero value is 0.0.0.0/0, the default route.
type Prefix struct {
	Addr uint32 // network address, host byte order
	Len  int    // prefix length, 0..32
}

// Mask returns the netmask of p as a 32-bit word.
func (p Prefix) Mask() uint32 {
	if p.Len <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(p.Len))
}

// Canonical returns p with host bits cleared.
func (p Prefix) Canonical() Prefix {
	return Prefix{Addr: p.Addr & p.Mask(), Len: p.Len}
}

// First returns the first address covered by p.
func (p Prefix) First() uint32 { return p.Addr & p.Mask() }

// Last returns the last address covered by p.
func (p Prefix) Last() uint32 { return p.First() | ^p.Mask() }

// Contains reports whether p covers the address a.
func (p Prefix) Contains(a uint32) bool {
	return a&p.Mask() == p.Addr&p.Mask()
}

// Covers reports whether p covers every address of q (p ⊇ q).
func (p Prefix) Covers(q Prefix) bool {
	return p.Len <= q.Len && p.Contains(q.Addr)
}

// Overlaps reports whether p and q share at least one address. For
// prefixes this is true iff one covers the other.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Covers(q) || q.Covers(p)
}

// Equal reports whether p and q denote the same prefix.
func (p Prefix) Equal(q Prefix) bool {
	return p.Len == q.Len && p.First() == q.First()
}

// Compare orders prefixes by first address, then by length (shorter
// first). It returns -1, 0, or +1.
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.First() < q.First():
		return -1
	case p.First() > q.First():
		return 1
	case p.Len < q.Len:
		return -1
	case p.Len > q.Len:
		return 1
	}
	return 0
}

// IsDefault reports whether p is 0.0.0.0/0.
func (p Prefix) IsDefault() bool { return p.Len == 0 }

// Halves splits p into its two children one bit longer. It panics if
// p is a host route (/32).
func (p Prefix) Halves() (lo, hi Prefix) {
	if p.Len >= 32 {
		panic("prefix: cannot split a /32")
	}
	lo = Prefix{Addr: p.First(), Len: p.Len + 1}
	hi = Prefix{Addr: p.First() | 1<<(31-uint(p.Len)), Len: p.Len + 1}
	return lo, hi
}

// String renders p in dotted-quad/len form, e.g. "10.0.0.0/8".
func (p Prefix) String() string {
	var buf [40]byte
	return string(p.AppendTo(buf[:0]))
}

// AppendTo appends p's String form to dst.
func (p Prefix) AppendTo(dst []byte) []byte {
	dst = appendAddr(dst, p.First())
	dst = append(dst, '/')
	return strconv.AppendInt(dst, int64(p.Len), 10)
}

// appendAddr appends a in dotted-quad form to dst.
func appendAddr(dst []byte, a uint32) []byte {
	dst = strconv.AppendUint(dst, uint64(byte(a>>24)), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(byte(a>>16)), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(byte(a>>8)), 10)
	dst = append(dst, '.')
	return strconv.AppendUint(dst, uint64(byte(a)), 10)
}

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (uint32, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("prefix: invalid IPv4 address %q", s)
	}
	var a uint32
	for _, part := range parts {
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n > 255 || (len(part) > 1 && part[0] == '0') {
			return 0, fmt.Errorf("prefix: invalid IPv4 octet %q in %q", part, s)
		}
		a = a<<8 | uint32(n)
	}
	return a, nil
}

// FormatAddr renders a 32-bit address in dotted-quad form.
func FormatAddr(a uint32) string {
	var buf [16]byte
	return string(appendAddr(buf[:0], a))
}

// Parse parses "a.b.c.d/len" into a canonical Prefix. A bare address
// is treated as a /32 host route.
func Parse(s string) (Prefix, error) {
	addrPart := s
	length := 32
	if i := strings.IndexByte(s, '/'); i >= 0 {
		addrPart = s[:i]
		n, err := strconv.Atoi(s[i+1:])
		if err != nil || n < 0 || n > 32 {
			return Prefix{}, fmt.Errorf("prefix: invalid length in %q", s)
		}
		length = n
	}
	a, err := ParseAddr(addrPart)
	if err != nil {
		return Prefix{}, err
	}
	return Prefix{Addr: a, Len: length}.Canonical(), nil
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(s string) Prefix {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Sort sorts prefixes in Compare order, in place.
func Sort(ps []Prefix) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
}

// Dedup returns ps sorted with exact duplicates removed.
func Dedup(ps []Prefix) []Prefix {
	if len(ps) == 0 {
		return nil
	}
	out := make([]Prefix, len(ps))
	copy(out, ps)
	Sort(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if !out[i].Equal(out[w-1]) {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}
