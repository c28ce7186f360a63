package sat

import (
	"math/rand"
	"testing"
)

// sameLits reports set equality of two literal slices (propagation
// reorders watched literals in place, so order is not preserved).
func sameLits(a, b []Lit) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[Lit]int, len(a))
	for _, l := range a {
		m[l]++
	}
	for _, l := range b {
		m[l]--
	}
	for _, n := range m {
		if n != 0 {
			return false
		}
	}
	return true
}

// checkWatchInvariants verifies the two-watched-literal structure over
// the whole solver: every arena watcher's clause ref is live (not a
// forwarding record), its clause has at least three literals and the
// watched literal is one of its first two, and every arena clause in
// the database is watched exactly twice. A binary watcher in the list
// of ¬x carries x and has the clause's other literal y as blocker; the
// list of ¬y must hold its mirror, and the binary watchers must number
// two per binary clause.
func checkWatchInvariants(t *testing.T, s *Solver) {
	t.Helper()
	count := make(map[CRef]int)
	binary := make(map[watcher]int) // a clause stored twice has twin watchers
	nbinary := 0
	for li := range s.watches {
		for _, w := range s.watches[li] {
			c := w.cref
			if c.binary() {
				if c.lit() != Lit(li).Neg() {
					t.Fatalf("binary watcher %+v in watch list of %v carries %v", w, Lit(li), c.lit())
				}
				binary[w]++
				nbinary++
				continue
			}
			if int(c) >= len(s.arena.data) {
				t.Fatalf("watcher cref %d out of slab bounds %d", c, len(s.arena.data))
			}
			if s.arena.forwarded(c) {
				t.Fatalf("watcher cref %d points at a forwarding record", c)
			}
			cl := s.arena.lits(c)
			if len(cl) < 3 {
				t.Fatalf("clause %d (%v) of %d literals stored in the arena", c, cl, len(cl))
			}
			watched := Lit(li).Neg()
			if cl[0] != watched && cl[1] != watched {
				t.Fatalf("clause %d (%v) in watch list of %v but watches neither first literal", c, cl, Lit(li))
			}
			count[c]++
		}
	}
	for w, n := range binary {
		if m := binary[watcher{binRef(w.blocker), w.cref.lit()}]; m != n {
			t.Fatalf("binary watcher %+v appears %d times, its mirror in the watch list of %v %d times",
				w, n, w.blocker.Neg(), m)
		}
	}
	if want := 2 * (s.binClauses + s.binLearnts); nbinary != want {
		t.Fatalf("%d binary watchers, want %d for %d problem and %d learned binary clauses",
			nbinary, want, s.binClauses, s.binLearnts)
	}
	for _, c := range s.clauses {
		if count[c] != 2 {
			t.Fatalf("problem clause %d watched %d times, want 2", c, count[c])
		}
	}
	for _, c := range s.learnts {
		if count[c] != 2 {
			t.Fatalf("learnt clause %d watched %d times, want 2", c, count[c])
		}
	}
}

// TestReduceDBInvariants manufactures a mid-search state with a locked
// reason clause, a glue clause, and hundreds of deletable learnt
// clauses, runs reduceDB (which triggers a compacting GC), and checks
// the Glucose-style survival rules plus every alias-remapping invariant
// of the arena collector.
func TestReduceDBInvariants(t *testing.T) {
	s := New()
	const nFill = 400
	vars := make([]Var, 9+3*nFill)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	// Disjoint variable ranges so each clause's role is unambiguous:
	// vars[0..2] back the locked learnt clause (the only clause over b),
	// vars[3..5] the problem clause, vars[6..8] the glue clause, and the
	// rest the deletable junk.
	a, b, c := vars[0], vars[1], vars[2]
	if !s.AddClause(NewLit(vars[3], false), NewLit(vars[4], false), NewLit(vars[5], false)) {
		t.Fatal("AddClause failed")
	}

	// A learnt clause that will become the reason for b: high LBD and
	// zero activity, so only the locked rule can save it.
	lockedLits := []Lit{NewLit(a, false), NewLit(b, false), NewLit(c, false)}
	locked := s.arena.alloc(lockedLits, true, 9)
	s.learnts = append(s.learnts, locked)
	s.attach(locked)

	// A glue clause (LBD ≤ glueLBD) over its own variables, ternary so
	// the binary survival rule does not also apply.
	glueLits := []Lit{NewLit(vars[6], false), NewLit(vars[7], true), NewLit(vars[8], false)}
	glue := s.arena.alloc(glueLits, true, glueLBD)
	s.learnts = append(s.learnts, glue)
	s.attach(glue)

	// Deletable junk: ternary, LBD 30, activity 0.
	for i := 0; i < nFill; i++ {
		v0, v1, v2 := vars[9+3*i], vars[9+3*i+1], vars[9+3*i+2]
		junk := s.arena.alloc([]Lit{NewLit(v0, false), NewLit(v1, true), NewLit(v2, false)}, true, 30)
		s.learnts = append(s.learnts, junk)
		s.attach(junk)
	}

	// Open a decision level, falsify a and c, and propagate: the locked
	// clause forces b and becomes its reason.
	s.trailLim = append(s.trailLim, len(s.trail))
	s.enqueue(NewLit(a, true), CRefUndef)
	s.enqueue(NewLit(c, true), CRefUndef)
	if confl := s.propagate(); confl != CRefUndef {
		t.Fatalf("unexpected conflict %d", confl)
	}
	if s.litValue(NewLit(b, false)) != True {
		t.Fatal("b not forced by the locked clause")
	}
	if s.vardata[b].reason != locked {
		t.Fatalf("b's reason = %d, want %d", s.vardata[b].reason, locked)
	}
	if !s.locked(locked) {
		t.Fatal("locked() does not report the reason clause as locked")
	}

	learntsBefore := len(s.learnts)
	s.reduceDB()

	if s.Stats.Deleted == 0 {
		t.Fatal("reduceDB deleted nothing")
	}
	if len(s.learnts) >= learntsBefore {
		t.Fatalf("learnt count did not shrink: %d -> %d", learntsBefore, len(s.learnts))
	}
	if s.Stats.ArenaGCs == 0 {
		t.Fatal("expected the compacting GC to run")
	}
	if s.arena.wasted != 0 {
		t.Fatalf("arena.wasted = %d after GC, want 0", s.arena.wasted)
	}

	// The locked clause survived and b's reason was remapped to its new
	// address with identical literals.
	r := s.vardata[b].reason
	if r == CRefUndef {
		t.Fatal("b lost its reason across reduceDB")
	}
	if !sameLits(s.arena.lits(r), lockedLits) {
		t.Fatalf("remapped reason lits = %v, want %v", s.arena.lits(r), lockedLits)
	}
	if !s.locked(r) {
		t.Fatal("remapped reason clause no longer locked")
	}
	foundLocked, foundGlue := false, false
	for _, c := range s.learnts {
		if sameLits(s.arena.lits(c), lockedLits) {
			foundLocked = true
		}
		if sameLits(s.arena.lits(c), glueLits) {
			foundGlue = true
			if got := s.arena.lbd(c); got != glueLBD {
				t.Fatalf("glue clause LBD = %d after GC, want %d", got, glueLBD)
			}
		}
	}
	if !foundLocked {
		t.Fatal("locked clause missing from learnts after reduceDB")
	}
	if !foundGlue {
		t.Fatal("glue clause deleted despite LBD ≤ glueLBD")
	}

	checkWatchInvariants(t, s)

	// The solver must still work: back to root and solve the (trivially
	// satisfiable) problem clause set.
	s.backtrack(0)
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve after reduceDB+GC = %v, want Sat", got)
	}
}

// TestSolveAfterGarbageCollect forces a compaction between two Solve
// calls on random instances and requires the status to be unchanged —
// GC must be transparent to search, including trail reasons recorded by
// root-level propagation.
func TestSolveAfterGarbageCollect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		n := 6 + rng.Intn(6)
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
		s.Grow(n)
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		got := s.Solve()

		s.garbageCollect()
		if s.arena.wasted != 0 {
			t.Fatalf("iter %d: arena.wasted = %d after GC", iter, s.arena.wasted)
		}
		checkWatchInvariants(t, s)

		if again := s.Solve(); again != got {
			t.Fatalf("iter %d: Solve after GC = %v, want %v (cnf=%v)", iter, again, got, cnf)
		}
		if got == Sat && !satisfies(s, cnf) {
			t.Fatalf("iter %d: post-GC model violates cnf", iter)
		}
	}
}

// TestArenaRelocForwarding checks the low-level forwarding protocol:
// relocating the same clause twice yields the same destination ref, and
// literals, learnt metadata (LBD, activity) survive the move.
func TestArenaRelocForwarding(t *testing.T) {
	var a arena
	l1 := []Lit{NewLit(1, false), NewLit(2, true), NewLit(3, false)}
	l2 := []Lit{NewLit(2, false), NewLit(4, false)}
	c1 := a.alloc(l1, true, 7)
	a.setActivity(c1, 2.5)
	c2 := a.alloc(l2, false, 0)

	var to arena
	n1 := a.reloc(c1, &to)
	if !a.forwarded(c1) {
		t.Fatal("source header not marked forwarded")
	}
	if again := a.reloc(c1, &to); again != n1 {
		t.Fatalf("second reloc = %d, want %d", again, n1)
	}
	n2 := a.reloc(c2, &to)

	if !sameLits(to.lits(n1), l1) || !to.learnt(n1) {
		t.Fatalf("learnt clause corrupted by reloc: %v", to.lits(n1))
	}
	if to.lbd(n1) != 7 {
		t.Fatalf("LBD lost in reloc: %d", to.lbd(n1))
	}
	if to.activity(n1) != 2.5 {
		t.Fatalf("activity lost in reloc: %v", to.activity(n1))
	}
	if !sameLits(to.lits(n2), l2) || to.learnt(n2) {
		t.Fatalf("problem clause corrupted by reloc: %v", to.lits(n2))
	}
}

// TestComputeLBD pins the LBD definition: the number of distinct
// decision levels among a clause's literals.
func TestComputeLBD(t *testing.T) {
	s := New()
	vs := make([]Var, 6)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	// Three decision levels with two variables each.
	for lvl := 0; lvl < 3; lvl++ {
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(NewLit(vs[2*lvl], false), CRefUndef)
		s.enqueue(NewLit(vs[2*lvl+1], false), CRefUndef)
	}
	if got := s.computeLBD([]Lit{NewLit(vs[0], true), NewLit(vs[1], true)}); got != 1 {
		t.Fatalf("same-level LBD = %d, want 1", got)
	}
	all := make([]Lit, len(vs))
	for i, v := range vs {
		all[i] = NewLit(v, true)
	}
	if got := s.computeLBD(all); got != 3 {
		t.Fatalf("three-level LBD = %d, want 3", got)
	}
	s.backtrack(0)
}
