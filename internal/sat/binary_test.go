package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// binaryHeavyClauses returns m random clauses over variables 1..n of
// which half are binary, one in twenty units and the rest ternary.
func binaryHeavyClauses(rng *rand.Rand, n, m int) [][]Lit {
	out := make([][]Lit, m)
	for i := range out {
		width := 2
		switch r := rng.Intn(20); {
		case r == 0:
			width = 1
		case r >= 16:
			width = 3
		}
		cl := make([]Lit, width)
		for j := range cl {
			cl[j] = NewLit(Var(1+rng.Intn(n)), rng.Intn(2) == 0)
		}
		out[i] = cl
	}
	return out
}

// holds reports whether clause cl is true under assignment m, whose bit
// v-1 is variable v's value.
func holds(m uint32, cl []Lit) bool {
	for _, l := range cl {
		if (m>>(l.Var()-1)&1 == 1) != l.Sign() {
			return true
		}
	}
	return false
}

// allModels enumerates the assignments of variables 1..n that satisfy
// cnf.
func allModels(n int, cnf [][]Lit) []uint32 {
	var out []uint32
	for m := uint32(0); m < 1<<n; m++ {
		ok := true
		for _, cl := range cnf {
			if !holds(m, cl) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, m)
		}
	}
	return out
}

// checkSolve solves s under assume and checks the answer against
// models, the enumerated models of cnf: the status, the model, and for
// Unsat that the final core alone is Unsat again.
func checkSolve(t *testing.T, s *Solver, cnf [][]Lit, models []uint32, assume []Lit) {
	t.Helper()
	want := slices.ContainsFunc(models, func(m uint32) bool {
		for _, a := range assume {
			if !holds(m, []Lit{a}) {
				return false
			}
		}
		return true
	})
	got := s.Solve(assume...)
	if (got == Sat) != want {
		t.Fatalf("solver=%v enumeration=%v cnf=%v assume=%v", got, want, cnf, assume)
	}
	if got == Sat {
		for _, a := range assume {
			if s.ModelValue(a.Var()) == a.Sign() {
				t.Fatalf("model violates assumption %v: cnf=%v assume=%v", a, cnf, assume)
			}
		}
		if !satisfies(s, cnf) {
			t.Fatalf("model violates cnf=%v assume=%v", cnf, assume)
		}
	}
	if got == Unsat {
		core := s.FinalCore()
		if again := s.Solve(core...); again != Unsat {
			t.Fatalf("re-solve under core %v = %v, want Unsat: cnf=%v assume=%v", core, again, cnf, assume)
		}
	}
}

// matchingClauses returns the CNF of placing k pigeons in k holes,
// one pigeon per hole and one hole per pigeon, over variables 1..k*k
// (variable 1+i*k+h puts pigeon i in hole h): k clauses of k literals
// and k*k*(k-1) binary at-most-one clauses. Negative assumptions forbid
// cells; proving that a set of forbidden cells leaves no perfect
// matching takes conflicts whose learned clauses span several levels,
// which is what reaches reduceDB and the arena collector on an
// instance small enough to enumerate.
func matchingClauses(k int) [][]Lit {
	v := func(i, h int) Var { return Var(1 + i*k + h) }
	var out [][]Lit
	for i := 0; i < k; i++ {
		var cl []Lit
		for h := 0; h < k; h++ {
			cl = append(cl, PosLit(v(i, h)))
		}
		out = append(out, cl)
	}
	for a := 0; a < k; a++ {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				out = append(out, []Lit{NegLit(v(i, a)), NegLit(v(j, a))}, []Lit{NegLit(v(a, i)), NegLit(v(a, j))})
			}
		}
	}
	return out
}

// TestBinaryClausesAgainstBruteForce cross-checks the solver against
// enumeration on binary-heavy incremental instances, where binary
// clauses, held only as watchers, supply most conflicts and reasons.
// Half the instances are random (half binary, the rest ternary and
// units), half the 4×4 matching problem (matchingClauses); each grows
// over several rounds of random clause additions, and each round is
// solved under several random assumption sets (negative cells for the
// matching problem), with a tiny learned-clause limit so reduceDB and
// the arena collector run between binary watchers and binary reasons.
// Every answer must match enumeration, a model must satisfy the
// clauses and assumptions, re-solving under an Unsat answer's final
// core must be Unsat again, every learned clause must hold in every
// model of the clauses added so far, and the watch structure must stay
// sound (checkWatchInvariants).
func TestBinaryClausesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var total Stats
	var binLearnts, binConflicts, binReasons int
	for iter := 0; iter < 120; iter++ {
		matching := iter%2 == 1
		n := 14 + rng.Intn(4)
		cnf := binaryHeavyClauses(rng, n, n+rng.Intn(n/2))
		if matching {
			n, cnf = 16, matchingClauses(4)
		}
		s := New()
		s.learntLimit = 2
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		var models []uint32
		var unsound []Lit
		s.onLearn = func(cl []Lit) {
			if unsound != nil {
				return
			}
			for _, m := range models {
				if !holds(m, cl) {
					unsound = slices.Clone(cl)
					return
				}
			}
		}
		// The arena collector runs mid-search: the decision order's
		// bookkeeping must hold there as after every solve.
		s.OnEvent = func(ev SolverEvent, _, _ int64) {
			if ev == EventArenaGC {
				if err := orderInvariant(s); err != nil {
					t.Fatalf("iter %d, at an arena collection: %v", iter, err)
				}
			}
		}
		s.debugChain = func(cl []Lit, pivot Lit) {
			switch {
			case len(cl) != 2:
			case pivot == -1:
				binConflicts++
			default:
				binReasons++
			}
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		for round := 0; round < 6 && s.Okay(); round++ {
			if round > 0 {
				for _, cl := range binaryHeavyClauses(rng, n, 1+rng.Intn(2)) {
					cnf = append(cnf, cl)
					s.AddClause(cl...)
				}
			}
			models = allModels(n, cnf)
			for try := 0; try < 4; try++ {
				assume := make([]Lit, rng.Intn(7))
				for i := range assume {
					assume[i] = NewLit(Var(1+rng.Intn(n)), matching || rng.Intn(2) == 0)
				}
				checkSolve(t, s, cnf, models, assume)
				if err := orderInvariant(s); err != nil {
					t.Fatalf("iter %d round %d: %v", iter, round, err)
				}
			}
			if unsound != nil {
				t.Fatalf("iter %d round %d: learned %v, not implied by cnf=%v", iter, round, unsound, cnf)
			}
			checkWatchInvariants(t, s)
		}
		total = total.Add(s.Stats)
		binLearnts += s.binLearnts
	}
	t.Logf("%+v; %d binary learned, %d binary conflicts, %d binary reasons", total, binLearnts, binConflicts, binReasons)
	if total.Deleted == 0 || total.ArenaGCs == 0 || binLearnts == 0 || binConflicts == 0 || binReasons == 0 {
		t.Fatalf("instances too easy to reach reduceDB, the arena collector and binary learning, conflicts and reasons: %+v; %d binary learned, %d binary conflicts, %d binary reasons",
			total, binLearnts, binConflicts, binReasons)
	}
}
