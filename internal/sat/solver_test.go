package sat

import (
	"math/rand"
	"testing"
)

func TestTrivialSat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if !s.ModelValue(a) {
		t.Error("model must set a true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	if ok := s.AddClause(NegLit(a)); ok {
		t.Error("adding contradictory unit should report failure")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Error("empty clause should make solver unsat")
	}
	if s.Solve() != Unsat {
		t.Error("want Unsat")
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(PosLit(a), NegLit(a)) {
		t.Error("tautology must be accepted")
	}
	if s.Solve() != Sat {
		t.Error("want Sat")
	}
}

func TestImplicationChain(t *testing.T) {
	// x1 -> x2 -> ... -> x50, x1 forced true.
	s := New()
	vars := make([]Var, 50)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i+1 < len(vars); i++ {
		s.AddClause(NegLit(vars[i]), PosLit(vars[i+1]))
	}
	s.AddClause(PosLit(vars[0]))
	if s.Solve() != Sat {
		t.Fatal("want Sat")
	}
	for i, v := range vars {
		if !s.ModelValue(v) {
			t.Fatalf("x%d should be true", i+1)
		}
	}
}

func TestPigeonhole(t *testing.T) {
	// 4 pigeons into 3 holes: classic small UNSAT instance.
	const pigeons, holes = 4, 3
	s := New()
	var x [pigeons][holes]Var
	for p := 0; p < pigeons; p++ {
		for h := 0; h < holes; h++ {
			x[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = PosLit(x[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(NegLit(x[p1][h]), NegLit(x[p2][h]))
			}
		}
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("pigeonhole(4,3) = %v, want Unsat", got)
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(NegLit(a), PosLit(b)) // a -> b
	if s.Solve(PosLit(a), NegLit(b)) != Unsat {
		t.Fatal("a ∧ ¬b with a→b should be Unsat")
	}
	core := s.Conflict()
	if len(core) == 0 {
		t.Fatal("expected a non-empty final conflict")
	}
	// Solver must remain usable and Sat without the bad assumption.
	if s.Solve(PosLit(a)) != Sat {
		t.Fatal("a alone should be Sat")
	}
	if !s.ModelValue(b) {
		t.Error("b must be true when a is assumed")
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	if s.Solve() != Sat {
		t.Fatal("want Sat")
	}
	s.AddClause(NegLit(a))
	s.AddClause(NegLit(b), PosLit(c))
	if s.Solve() != Sat {
		t.Fatal("still Sat")
	}
	if s.ModelValue(a) || !s.ModelValue(b) || !s.ModelValue(c) {
		t.Errorf("model a=%v b=%v c=%v, want false,true,true",
			s.ModelValue(a), s.ModelValue(b), s.ModelValue(c))
	}
}

func TestLitBasics(t *testing.T) {
	v := Var(7)
	p, n := PosLit(v), NegLit(v)
	if p.Var() != v || n.Var() != v {
		t.Error("Var round-trip failed")
	}
	if p.Sign() || !n.Sign() {
		t.Error("Sign wrong")
	}
	if p.Neg() != n || n.Neg() != p {
		t.Error("Neg must flip polarity")
	}
	if p.String() != "v7" || n.String() != "~v7" {
		t.Errorf("String: %s %s", p, n)
	}
}

func TestTriboolNot(t *testing.T) {
	if True.Not() != False || False.Not() != True || Undef.Not() != Undef {
		t.Error("Tribool.Not broken")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(1, int64(i+1)); got != w {
			t.Errorf("luby(1,%d) = %d, want %d", i+1, got, w)
		}
	}
}

// brute checks satisfiability of a CNF by enumeration (n <= 20).
func brute(n int, cnf [][]Lit) bool {
	for m := 0; m < 1<<n; m++ {
		ok := true
		for _, cl := range cnf {
			cok := false
			for _, l := range cl {
				bit := m>>(int(l.Var())-1)&1 == 1
				if bit != l.Sign() {
					cok = true
					break
				}
			}
			if !cok {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandom3SATAgainstBruteForce is the core correctness property:
// on hundreds of random instances near the phase transition, the CDCL
// result must match exhaustive enumeration, and every Sat model must
// actually satisfy the formula.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		n := 4 + rng.Intn(9) // 4..12 vars
		m := int(4.3 * float64(n))
		cnf := make([][]Lit, m)
		for i := range cnf {
			cl := make([]Lit, 3)
			for j := range cl {
				cl[j] = NewLit(Var(1+rng.Intn(n)), rng.Intn(2) == 1)
			}
			cnf[i] = cl
		}
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		got := s.Solve()
		want := brute(n, cnf)
		if (got == Sat) != want {
			t.Fatalf("iter %d: solver=%v brute=%v cnf=%v", iter, got, want, cnf)
		}
		if got == Sat {
			for _, cl := range cnf {
				ok := false
				for _, l := range cl {
					if s.ModelValue(l.Var()) != l.Sign() {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model does not satisfy clause %v", iter, cl)
				}
			}
		}
	}
}

// TestRandomWithAssumptions checks assumption-based solving against
// brute force with the assumptions added as unit clauses.
func TestRandomWithAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 150; iter++ {
		n := 4 + rng.Intn(7)
		m := int(3.5 * float64(n))
		cnf := make([][]Lit, m)
		for i := range cnf {
			cl := make([]Lit, 3)
			for j := range cl {
				cl[j] = NewLit(Var(1+rng.Intn(n)), rng.Intn(2) == 1)
			}
			cnf[i] = cl
		}
		nAssume := 1 + rng.Intn(3)
		assume := make([]Lit, nAssume)
		for i := range assume {
			assume[i] = NewLit(Var(1+rng.Intn(n)), rng.Intn(2) == 1)
		}
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		got := s.Solve(assume...)
		full := append([][]Lit{}, cnf...)
		for _, a := range assume {
			full = append(full, []Lit{a})
		}
		want := brute(n, full)
		if (got == Sat) != want {
			t.Fatalf("iter %d: solver=%v brute=%v", iter, got, want)
		}
		// The solver must stay reusable after assumption solving.
		got2 := s.Solve()
		want2 := brute(n, cnf)
		if (got2 == Sat) != want2 {
			t.Fatalf("iter %d: post-assumption resolve=%v brute=%v", iter, got2, want2)
		}
	}
}

func TestConflictCoreIsSufficient(t *testing.T) {
	// x1..x5 with a->b chains; assuming a true and e false conflicts.
	s := New()
	vs := make([]Var, 5)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	for i := 0; i+1 < 5; i++ {
		s.AddClause(NegLit(vs[i]), PosLit(vs[i+1]))
	}
	extra := s.NewVar() // irrelevant assumption
	if s.Solve(PosLit(extra), PosLit(vs[0]), NegLit(vs[4])) != Unsat {
		t.Fatal("want Unsat")
	}
	core := s.Conflict()
	for _, l := range core {
		if l.Var() == extra {
			t.Error("irrelevant assumption must not be in the core")
		}
	}
	if len(core) == 0 || len(core) > 2 {
		t.Errorf("core = %v, want the two relevant assumptions", core)
	}
}

func TestStatsProgress(t *testing.T) {
	s := New()
	vs := make([]Var, 30)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 120; i++ {
		s.AddClause(
			NewLit(vs[rng.Intn(30)], rng.Intn(2) == 1),
			NewLit(vs[rng.Intn(30)], rng.Intn(2) == 1),
			NewLit(vs[rng.Intn(30)], rng.Intn(2) == 1))
	}
	s.Solve()
	if s.Stats.SolveCalls != 1 {
		t.Error("SolveCalls should be 1")
	}
	if s.Stats.Propagations == 0 {
		t.Error("expected some propagations")
	}
}

func BenchmarkSolverRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		n := 60
		s := New()
		for v := 0; v < n; v++ {
			s.NewVar()
		}
		for c := 0; c < int(4.0*float64(n)); c++ {
			s.AddClause(
				NewLit(Var(1+rng.Intn(n)), rng.Intn(2) == 1),
				NewLit(Var(1+rng.Intn(n)), rng.Intn(2) == 1),
				NewLit(Var(1+rng.Intn(n)), rng.Intn(2) == 1))
		}
		s.Solve()
	}
}

// TestSetPhasesGuidesNextSearch plants a model in a random 3-SAT
// instance, lets a first search find some model, then points the saved
// phases at the planted one: the next search must decide its way
// straight to it, without a conflict.
func TestSetPhasesGuidesNextSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		n := 20 + rng.Intn(30)
		planted := make([]Tribool, n+1)
		for v := 1; v <= n; v++ {
			planted[v] = True
			if rng.Intn(2) == 0 {
				planted[v] = False
			}
		}
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		for i := 0; i < 3*n; i++ {
			cl := make([]Lit, 3)
			for j := range cl {
				cl[j] = NewLit(Var(1+rng.Intn(n)), rng.Intn(2) == 1)
			}
			// Make the planted model satisfy the clause.
			if v := cl[0].Var(); (planted[v] == False) != cl[0].Sign() {
				cl[0] = cl[0].Neg()
			}
			s.AddClause(cl...)
		}
		if s.Solve() != Sat {
			t.Fatalf("iter %d: planted instance unsat", iter)
		}
		s.SetPhases(planted)
		conflicts := s.Stats.Conflicts
		if s.Solve() != Sat {
			t.Fatalf("iter %d: second solve unsat", iter)
		}
		if c := s.Stats.Conflicts - conflicts; c != 0 {
			t.Errorf("iter %d: %d conflicts after SetPhases, want 0", iter, c)
		}
		for v := 1; v <= n; v++ {
			if got := s.ModelValue(Var(v)); got != (planted[v] == True) {
				t.Fatalf("iter %d: var %d = %v, planted %v", iter, v, got, planted[v])
			}
		}
	}
}
