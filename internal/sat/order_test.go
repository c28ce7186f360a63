package sat

import (
	"fmt"
	"testing"
)

// orderInvariant checks the decision order's bookkeeping: the heap is a
// max-heap on activity whose index map matches it, and every
// unassigned variable is in the heap or has activity 0 and an index at
// most the cursor, so pickBranchVar reaches each of them.
func orderInvariant(s *Solver) error {
	h := s.heap
	for i, v := range h.heap {
		if h.indices[v] != int32(i) {
			return fmt.Errorf("heap[%d] = %d, but indices[%d] = %d", i, v, v, h.indices[v])
		}
		if p := (i - 1) / 2; i > 0 && h.less(v, h.heap[p]) {
			return fmt.Errorf("heap[%d] = %d outranks its parent %d", i, v, h.heap[p])
		}
	}
	if int(s.next) > s.numVars {
		return fmt.Errorf("cursor %d past the last variable %d", s.next, s.numVars)
	}
	for v := Var(1); int(v) <= s.numVars; v++ {
		if s.assigns[v] != Undef || h.inHeap(v) {
			continue
		}
		if s.activity[v] != 0 {
			return fmt.Errorf("unassigned variable %d has activity %g but is not in the heap", v, s.activity[v])
		}
		if v > s.next {
			return fmt.Errorf("unassigned variable %d is neither in the heap nor at or below the cursor %d", v, s.next)
		}
	}
	return nil
}

// decide assigns v false at a new decision level, as search does.
func decide(s *Solver, v Var) {
	s.trailLim = append(s.trailLim, len(s.trail))
	s.enqueue(NewLit(v, true), CRefUndef)
}

// decisions drains pickBranchVar, deciding each variable it returns,
// then backtracks to the root.
func decisions(t *testing.T, s *Solver) []Var {
	t.Helper()
	var order []Var
	for v := s.pickBranchVar(); v != 0; v = s.pickBranchVar() {
		order = append(order, v)
		decide(s, v)
		if err := orderInvariant(s); err != nil {
			t.Fatal(err)
		}
	}
	s.backtrack(0)
	if err := orderInvariant(s); err != nil {
		t.Fatal(err)
	}
	return order
}

func TestUnbumpedVariablesDecidedInDescendingOrder(t *testing.T) {
	s := New()
	for range 6 {
		s.NewVar()
	}
	want := []Var{6, 5, 4, 3, 2, 1}
	for pass := range 2 {
		if got := decisions(t, s); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("pass %d: decided %v, want %v", pass, got, want)
		}
		if !s.heap.empty() {
			t.Fatalf("pass %d: %d never-bumped variables went through the heap", pass, len(s.heap.heap))
		}
	}
	// A variable added after a search is the newest: decided first.
	s.NewVar()
	if got := decisions(t, s); fmt.Sprint(got) != fmt.Sprint([]Var{7, 6, 5, 4, 3, 2, 1}) {
		t.Fatalf("after NewVar: decided %v", got)
	}
}

func TestBumpedVariableDecidedFirst(t *testing.T) {
	s := New()
	for range 6 {
		s.NewVar()
	}
	// Bumped while unassigned: it enters the heap at once.
	s.bumpVar(2)
	if err := orderInvariant(s); err != nil {
		t.Fatal(err)
	}
	if got := decisions(t, s); fmt.Sprint(got) != fmt.Sprint([]Var{2, 6, 5, 4, 3, 1}) {
		t.Fatalf("decided %v, want 2 first, then the rest descending", got)
	}
	// Bumped while assigned: backtracking puts it in the heap, ahead of
	// 2 once its activity is higher.
	decide(s, 6)
	decide(s, 4)
	s.bumpVar(4)
	s.bumpVar(4)
	s.backtrack(0)
	if err := orderInvariant(s); err != nil {
		t.Fatal(err)
	}
	if got := decisions(t, s); fmt.Sprint(got) != fmt.Sprint([]Var{4, 2, 6, 5, 3, 1}) {
		t.Fatalf("decided %v, want 4, 2, then the rest descending", got)
	}
}
