package smt

import (
	"testing"

	"github.com/aed-net/aed/internal/sat"
)

// TestInternTable inserts thousands of distinct gates, through several
// doublings, and finds each again from a structurally equal rebuild;
// gates never inserted miss. A reserved table takes its nodes without
// resizing.
func TestInternTable(t *testing.T) {
	c := NewContext()
	vs := make([]*Formula, 64)
	for i := range vs {
		vs[i] = c.BoolVar()
	}
	gate := func(i int) *Formula {
		return And(vs[i%64], Or(vs[(i/64)%64], Not(vs[(i/4096)%64])))
	}
	const n = 5000
	var tab internTable
	for i := 0; i < n; i++ {
		if _, ok := tab.lookup(gate(i)); ok {
			t.Fatalf("gate %d found before insert", i)
		}
		tab.insert(gate(i), sat.Lit(i))
		if size := len(tab.slots); size&(size-1) != 0 || 4*tab.n > 3*size {
			t.Fatalf("after %d inserts: %d slots", tab.n, size)
		}
	}
	for i := 0; i < n; i++ {
		if l, ok := tab.lookup(gate(i)); !ok || l != sat.Lit(i) {
			t.Fatalf("gate %d: lookup = %d, %v", i, l, ok)
		}
	}
	if _, ok := tab.lookup(gate(n)); ok {
		t.Fatal("gate never inserted was found")
	}

	var reserved internTable
	reserved.reserve(n)
	size := len(reserved.slots)
	for i := 0; i < n; i++ {
		reserved.insert(gate(i), sat.Lit(i))
	}
	if len(reserved.slots) != size {
		t.Fatalf("reserved table resized from %d to %d slots", size, len(reserved.slots))
	}
}
