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

// addClause adds lits to s and returns AddClause's result and the
// literals of the problem clause it stored, or nil when it stored none.
// A clause of three or more literals is read from the arena. A binary
// clause lives only in the watch lists, so it is read back from the two
// watchers the addition appended, each of which must mirror the other:
// the clause x ∨ y is watcher{binRef(x), y} in the list of ¬x and
// watcher{binRef(y), x} in the list of ¬y.
func addClause(t *testing.T, s *Solver, lits ...Lit) (bool, []Lit) {
	t.Helper()
	arenaBefore, binBefore := len(s.clauses), s.binClauses
	lens := make([]int, len(s.watches))
	for li, ws := range s.watches {
		lens[li] = len(ws)
	}
	ok := s.AddClause(lits...)
	switch {
	case len(s.clauses) > arenaBefore:
		return ok, s.arena.lits(s.clauses[len(s.clauses)-1])
	case s.binClauses == binBefore:
		return ok, nil
	}
	type added struct {
		list Lit
		w    watcher
	}
	var ws []added
	for li := range s.watches {
		for _, w := range s.watches[li][lens[li]:] {
			ws = append(ws, added{Lit(li), w})
		}
	}
	if len(ws) != 2 {
		t.Fatalf("binary clause added %d watchers, want 2", len(ws))
	}
	for i, a := range ws {
		mirror := ws[1-i].w
		if !a.w.cref.binary() || a.w.cref.lit() != a.list.Neg() ||
			mirror.cref != binRef(a.w.blocker) || mirror.blocker != a.w.cref.lit() {
			t.Fatalf("binary watchers %+v and %+v do not mirror each other", ws[0], ws[1])
		}
	}
	cl := []Lit{ws[0].w.cref.lit(), ws[0].w.blocker}
	slices.Sort(cl)
	return ok, cl
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
		_, got := addClause(t, s, PosLit(v[2]), PosLit(v[0]), PosLit(v[2]), PosLit(v[0]))
		if want := []Lit{PosLit(v[0]), PosLit(v[2])}; !slices.Equal(got, want) {
			t.Errorf("stored %v, want %v", got, want)
		}
	})
	t.Run("tautology", func(t *testing.T) {
		s, v := newSolver(3)
		ok, got := addClause(t, s, PosLit(v[1]), PosLit(v[0]), NegLit(v[1]))
		if !ok {
			t.Fatal("tautology must be accepted")
		}
		if s.NumClauses() != 0 || got != nil {
			t.Errorf("tautology stored: %v", got)
		}
	})
	t.Run("root-true", func(t *testing.T) {
		s, v := newSolver(3)
		s.AddClause(PosLit(v[0]))
		ok, got := addClause(t, s, PosLit(v[1]), PosLit(v[0]), PosLit(v[2]))
		if !ok {
			t.Fatal("satisfied clause must be accepted")
		}
		if s.NumClauses() != 0 || got != nil {
			t.Errorf("root-satisfied clause stored: %v", got)
		}
	})
	t.Run("root-false", func(t *testing.T) {
		s, v := newSolver(3)
		s.AddClause(NegLit(v[0]))
		_, got := addClause(t, s, PosLit(v[2]), PosLit(v[0]), PosLit(v[1]))
		if want := []Lit{PosLit(v[1]), PosLit(v[2])}; !slices.Equal(got, want) {
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
		_, got := addClause(t, s, in...)
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
			_, got := addClause(t, s, in...)
			switch {
			case taut:
				if s.NumClauses() != before || got != nil {
					t.Fatalf("input %v: stored %v, want nothing", in, got)
				}
			case !slices.Equal(got, want):
				t.Fatalf("input %v: stored %v, want %v", in, got, want)
			}
		}
	})
}

// TestReserveFillsInPlace: a solver reserved with the Size of an
// earlier, equal instance stores the same variables and clauses without
// regrowing its per-variable slices, arena or clause list, and its
// short watch lists live in windows of shared blocks. The search must
// not notice the reservation.
func TestReserveFillsInPlace(t *testing.T) {
	const n = 2000
	// A chain x_i ∨ x_i+1 ∨ ¬x_i+2 watches each literal at most twice,
	// well inside one window.
	var clauses [][]Lit
	for v := Var(1); v+2 <= n; v++ {
		clauses = append(clauses, []Lit{PosLit(v), PosLit(v + 1), NegLit(v + 2)})
	}
	fill := func(s *Solver) {
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		for _, cl := range clauses {
			s.AddClause(cl...)
		}
	}
	first := New()
	fill(first)
	vars, words, ncl := first.Size()
	if vars != n || ncl != len(clauses) || words != 4*ncl {
		t.Fatalf("Size() = %d vars, %d words, %d clauses", vars, words, ncl)
	}
	plainAllocs := testing.AllocsPerRun(5, func() { fill(New()) })
	allocs := testing.AllocsPerRun(5, func() {
		s := New()
		s.Reserve(vars, words, ncl)
		fill(s)
	})
	// New and Reserve allocate a fixed couple of dozen slices and the
	// rest is one watch block per watchBlockWindows watched literals:
	// about 60 allocations against about 190 for the unreserved fill,
	// whose every per-variable slice, arena and clause list regrows a
	// dozen times. Without watch windows both would count thousands.
	t.Logf("fill: %.0f allocs unreserved, %.0f reserved", plainAllocs, allocs)
	if allocs > plainAllocs/2 {
		t.Errorf("reserved fill: %.0f allocs, unreserved %.0f; want at most half", allocs, plainAllocs)
	}

	reserved := New()
	reserved.Reserve(vars, words, ncl)
	fill(reserved)
	plain := New()
	fill(plain)
	if st, str := plain.Solve(), reserved.Solve(); st != str || plain.Stats != reserved.Stats ||
		!slices.Equal(plain.Model(), reserved.Model()) {
		t.Errorf("reserved solver searched differently: %v %+v vs %v %+v", st, plain.Stats, str, reserved.Stats)
	}
}

// TestReserveAmortized: Reserve calls that each ask for a little more
// grow storage geometrically, as Grow does.
func TestReserveAmortized(t *testing.T) {
	const steps = 2000
	allocs := testing.AllocsPerRun(5, func() {
		s := New()
		for i := 1; i <= steps; i++ {
			s.Reserve(i, 4*i, i)
		}
	})
	if allocs > steps/4 {
		t.Errorf("%d growing Reserve calls: %.0f allocs, want at most %d", steps, allocs, steps/4)
	}
}
