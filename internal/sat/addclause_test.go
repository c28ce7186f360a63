package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// TestGrowAmortized: a long run of small Grow(n)+NewVar bursts — the
// shape of Tseitin gates and totalizer merges — must grow the
// per-variable slices geometrically. Reallocating each slice to exactly
// the requested size would cost about a dozen allocations per burst.
func TestGrowAmortized(t *testing.T) {
	const bursts, width = 2000, 3
	allocs := testing.AllocsPerRun(5, func() {
		s := New()
		for i := 0; i < bursts; i++ {
			s.Grow(width)
			for j := 0; j < width; j++ {
				s.NewVar()
			}
		}
	})
	if allocs > bursts/4 {
		t.Errorf("%d Grow(%d)+NewVar bursts: %.0f allocs, want at most %d", bursts, width, allocs, bursts/4)
	}
}

// TestAddClauseZeroAlloc: once the solver's buffers have grown, adding
// a clause allocates nothing, short or long (slices.Sort sorts in
// place). The arena, clause list and watch
// lists grow geometrically, so their reallocations round away over a
// thousand additions.
func TestAddClauseZeroAlloc(t *testing.T) {
	s := New()
	vars := make([]Var, 64)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	short := []Lit{NegLit(vars[7]), PosLit(vars[3]), PosLit(vars[5])}
	long := make([]Lit, 40)
	for i := range long {
		long[i] = NewLit(vars[(i*17)%len(vars)], i%3 == 0)
	}
	for _, c := range [][]Lit{short, long} {
		s.AddClause(c...) // warm-up: size the normalization buffer
		if allocs := testing.AllocsPerRun(1000, func() { s.AddClause(c...) }); allocs != 0 {
			t.Errorf("AddClause of %d literals: %.2f allocs/op, want 0", len(c), allocs)
		}
	}
}

// lastClause returns the literals of the most recently stored problem
// clause, or nil when none is stored.
func lastClause(s *Solver) []Lit {
	if len(s.clauses) == 0 {
		return nil
	}
	return s.arena.lits(s.clauses[len(s.clauses)-1])
}

func TestAddClauseNormalization(t *testing.T) {
	newSolver := func(n int) (*Solver, []Var) {
		s := New()
		vs := make([]Var, n)
		for i := range vs {
			vs[i] = s.NewVar()
		}
		return s, vs
	}

	t.Run("duplicate", func(t *testing.T) {
		s, v := newSolver(3)
		s.AddClause(PosLit(v[2]), PosLit(v[0]), PosLit(v[2]), PosLit(v[0]))
		if got, want := lastClause(s), []Lit{PosLit(v[0]), PosLit(v[2])}; !slices.Equal(got, want) {
			t.Errorf("stored %v, want %v", got, want)
		}
	})
	t.Run("tautology", func(t *testing.T) {
		s, v := newSolver(3)
		if !s.AddClause(PosLit(v[1]), PosLit(v[0]), NegLit(v[1])) {
			t.Fatal("tautology must be accepted")
		}
		if s.NumClauses() != 0 {
			t.Errorf("tautology stored: %v", lastClause(s))
		}
	})
	t.Run("root-true", func(t *testing.T) {
		s, v := newSolver(3)
		s.AddClause(PosLit(v[0]))
		if !s.AddClause(PosLit(v[1]), PosLit(v[0]), PosLit(v[2])) {
			t.Fatal("satisfied clause must be accepted")
		}
		if s.NumClauses() != 0 {
			t.Errorf("root-satisfied clause stored: %v", lastClause(s))
		}
	})
	t.Run("root-false", func(t *testing.T) {
		s, v := newSolver(3)
		s.AddClause(NegLit(v[0]))
		s.AddClause(PosLit(v[2]), PosLit(v[0]), PosLit(v[1]))
		if got, want := lastClause(s), []Lit{PosLit(v[1]), PosLit(v[2])}; !slices.Equal(got, want) {
			t.Errorf("stored %v, want %v (root-false literal dropped)", got, want)
		}
		// Down to one literal: the clause becomes a root assignment.
		if !s.AddClause(PosLit(v[0]), NegLit(v[1])) || s.NumClauses() != 1 {
			t.Fatalf("unit after dropping: ok=%v clauses=%d", s.Okay(), s.NumClauses())
		}
		if s.Value(v[1]) != False {
			t.Errorf("v1 = %v, want False at root", s.Value(v[1]))
		}
		// Down to no literal: the solver is unsatisfiable.
		if s.AddClause(PosLit(v[0]), PosLit(v[1])) || s.Okay() {
			t.Error("all-false clause must make the solver unsat")
		}
	})
	t.Run("long", func(t *testing.T) {
		s, v := newSolver(60)
		var in []Lit
		for i := len(v) - 1; i >= 0; i -= 2 {
			in = append(in, NegLit(v[i]), NegLit(v[i])) // 60 literals, 30 distinct
		}
		s.AddClause(in...)
		got := lastClause(s)
		if len(got) != 30 || !slices.IsSorted(got) {
			t.Errorf("stored %d literals %v, want 30 sorted", len(got), got)
		}
	})
	t.Run("differential", func(t *testing.T) {
		// Random clauses of 2–80 literals on an unassigned solver:
		// the stored clause is the sorted, deduplicated input.
		rng := rand.New(rand.NewSource(1))
		s, v := newSolver(50)
		for iter := 0; iter < 500; iter++ {
			in := make([]Lit, 2+rng.Intn(79))
			for i := range in {
				in[i] = NewLit(v[rng.Intn(len(v))], rng.Intn(2) == 0)
			}
			want := slices.Clone(in)
			slices.Sort(want)
			want = slices.Compact(want)
			taut := false
			for i := 1; i < len(want); i++ {
				taut = taut || want[i] == want[i-1].Neg()
			}
			if len(want) < 2 {
				continue // a unit would assign at the root
			}
			before := s.NumClauses()
			s.AddClause(in...)
			switch {
			case taut:
				if s.NumClauses() != before {
					t.Fatalf("input %v: stored %v, want nothing", in, lastClause(s))
				}
			case !slices.Equal(lastClause(s), want):
				t.Fatalf("input %v: stored %v, want %v", in, lastClause(s), want)
			}
		}
	})
}
