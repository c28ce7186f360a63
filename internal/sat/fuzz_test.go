package sat

import (
	"fmt"
	"testing"
)

// fuzzCNF derives a small CNF and assumption list deterministically from
// fuzz bytes: byte 0 picks the variable count (3..10), byte 1 the number
// of assumptions (0..3), byte 2 the clause width cap (2 when even, 3
// when odd: under a cap of 2 every conflict and every reason is a
// binary clause), and the rest encode literals (var from the high bits,
// sign from the low bit), with 0xff acting as a clause break.
func fuzzCNF(data []byte) (n int, cnf [][]Lit, assume []Lit) {
	if len(data) < 4 {
		return 0, nil, nil
	}
	n = 3 + int(data[0])%8
	nAssume := int(data[1]) % 4
	width := 2 + int(data[2])%2
	body := data[3:]
	if nAssume > len(body) {
		nAssume = len(body)
	}
	for _, b := range body[:nAssume] {
		assume = append(assume, NewLit(Var(1+int(b>>1)%n), b&1 == 1))
	}
	var cl []Lit
	for _, b := range body[nAssume:] {
		if b == 0xff {
			if len(cl) > 0 {
				cnf = append(cnf, cl)
				cl = nil
			}
			continue
		}
		cl = append(cl, NewLit(Var(1+int(b>>1)%n), b&1 == 1))
		if len(cl) == width {
			cnf = append(cnf, cl)
			cl = nil
		}
	}
	if len(cl) > 0 {
		cnf = append(cnf, cl)
	}
	return n, cnf, assume
}

// satisfies reports whether the solver's current model satisfies cnf.
func satisfies(s *Solver, cnf [][]Lit) bool {
	for _, cl := range cnf {
		ok := false
		for _, l := range cl {
			if s.ModelValue(l.Var()) != l.Sign() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// FuzzSolver cross-checks the CDCL solver against brute-force
// enumeration on fuzzer-derived instances, covering the three paths the
// arena rewrite touches most: assumption solving (final-conflict
// analysis), solver reuse after a Solve call (trail/watch state reset),
// and determinism against a freshly built solver on the same input.
// The decision order's bookkeeping (orderInvariant) is checked after
// every solve and around every compaction.
func FuzzSolver(f *testing.F) {
	f.Add([]byte{5, 2, 3, 1, 4, 2, 3, 6, 0xff, 7, 8, 9, 12, 13})
	f.Add([]byte{3, 0, 3, 2, 3, 4, 5, 0xff, 1, 1, 6})
	f.Add([]byte{8, 3, 3, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21})
	f.Add([]byte{4, 1, 3, 9, 9, 8, 0xff, 0xff, 2, 4, 6, 1, 3, 5})
	f.Add([]byte{6, 1, 2, 3, 0, 2, 5, 4, 7, 6, 9, 8, 11, 1, 10, 3, 5})
	f.Add([]byte{9, 2, 2, 4, 17, 0, 3, 1, 4, 5, 8, 9, 12, 13, 16, 2, 6, 10, 14, 7, 11, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOrder := func(s *Solver, at string) {
			t.Helper()
			if err := orderInvariant(s); err != nil {
				t.Fatalf("%s: %v", at, err)
			}
		}
		n, cnf, assume := fuzzCNF(data)
		if n == 0 || len(cnf) == 0 {
			t.Skip()
		}
		build := func() *Solver {
			s := New()
			s.Grow(n)
			for i := 0; i < n; i++ {
				s.NewVar()
			}
			for _, cl := range cnf {
				if !s.AddClause(cl...) {
					break
				}
			}
			return s
		}

		s := build()
		got := s.Solve(assume...)
		checkOrder(s, "assumption solve")
		withUnits := make([][]Lit, 0, len(cnf)+len(assume))
		withUnits = append(withUnits, cnf...)
		for _, a := range assume {
			withUnits = append(withUnits, []Lit{a})
		}
		if want := brute(n, withUnits); (got == Sat) != want {
			t.Fatalf("assumption solve: solver=%v brute=%v cnf=%v assume=%v", got, want, cnf, assume)
		}
		if got == Sat && !satisfies(s, withUnits) {
			t.Fatalf("model violates cnf+assumptions: cnf=%v assume=%v", cnf, assume)
		}

		// Reuse: the same solver, re-solved without assumptions, must
		// agree with brute force on the bare CNF.
		got2 := s.Solve()
		checkOrder(s, "reuse solve")
		if want2 := brute(n, cnf); (got2 == Sat) != want2 {
			t.Fatalf("reuse solve: solver=%v brute=%v cnf=%v", got2, want2, cnf)
		}
		if got2 == Sat && !satisfies(s, cnf) {
			t.Fatalf("reuse model violates cnf=%v", cnf)
		}

		// A freshly built solver must reach the same status under the
		// same assumptions as the first call did.
		if got3 := build().Solve(assume...); got3 != got {
			t.Fatalf("fresh solver disagrees: %v vs %v, cnf=%v assume=%v", got3, got, cnf, assume)
		}

		// Incremental mode: feed the same CNF clause-by-clause into one
		// long-lived solver, interleaving assumption Solve calls with the
		// additions and compacting it at fuzzer-chosen steps. After every
		// step the live solver — carrying learned clauses, VSIDS
		// activity, and saved phases from all earlier calls — must agree
		// with a freshly built solver on the clauses added so far, and its
		// final cores must be genuine.
		inc := New()
		inc.Grow(n)
		for i := 0; i < n; i++ {
			inc.NewVar()
		}
		incOK := true
		for upto := 1; upto <= len(cnf); upto++ {
			if data[upto%len(data)]&0x40 != 0 {
				checkOrder(inc, "before Compact")
				inc.Compact()
				checkOrder(inc, "after Compact")
			}
			if incOK {
				incOK = inc.AddClause(cnf[upto-1]...)
			}
			// Rotate the assumption window so different subsets get
			// exercised as the clause set grows.
			asm := assume
			if len(assume) > 0 {
				asm = assume[upto%(len(assume)+1):]
			}
			st := inc.Solve(asm...)
			checkOrder(inc, fmt.Sprintf("incremental step %d", upto))

			fresh := New()
			fresh.Grow(n)
			for i := 0; i < n; i++ {
				fresh.NewVar()
			}
			freshOK := true
			for _, cl := range cnf[:upto] {
				if freshOK {
					freshOK = fresh.AddClause(cl...)
				}
			}
			if stf := fresh.Solve(asm...); st != stf {
				t.Fatalf("incremental step %d: live=%v fresh=%v cnf=%v asm=%v",
					upto, st, stf, cnf[:upto], asm)
			}
			stepCNF := make([][]Lit, 0, upto+len(asm))
			stepCNF = append(stepCNF, cnf[:upto]...)
			for _, a := range asm {
				stepCNF = append(stepCNF, []Lit{a})
			}
			if want := brute(n, stepCNF); (st == Sat) != want {
				t.Fatalf("incremental step %d: live=%v brute=%v cnf=%v asm=%v",
					upto, st, want, cnf[:upto], asm)
			}
			if st == Sat && !satisfies(inc, stepCNF) {
				t.Fatalf("incremental step %d: model violates cnf+assumptions", upto)
			}
			if st == Unsat {
				core := append([]Lit(nil), inc.FinalCore()...)
				for _, l := range core {
					found := false
					for _, a := range asm {
						if a == l {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("incremental step %d: core lit %v not among assumptions %v", upto, l, asm)
					}
				}
				// The core alone must keep the instance Unsat.
				if stc := inc.Solve(core...); stc != Unsat {
					t.Fatalf("incremental step %d: re-solve under core %v = %v, want Unsat", upto, core, stc)
				}
				checkOrder(inc, fmt.Sprintf("incremental step %d core re-solve", upto))
			}
		}
	})
}
