package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// randomClauses returns m random 3-literal clauses over variables
// 1..n.
func randomClauses(rng *rand.Rand, n, m int) [][]Lit {
	out := make([][]Lit, m)
	for i := range out {
		cl := make([]Lit, 3)
		for j := range cl {
			cl[j] = NewLit(Var(1+rng.Intn(n)), rng.Intn(2) == 0)
		}
		out[i] = cl
	}
	return out
}

// TestCompactKeepsSearchIdentical runs twin solvers through the same
// incremental history — clause batches, new variables and assumption
// solves — and compacts one twin between calls. Compact keeps watcher
// order and clause refs, so every search must match step for step:
// the same status, Stats, model and final core.
func TestCompactKeepsSearchIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 150
	plain, compacted := newSolver(n), newSolver(n)
	for _, cl := range randomClauses(rng, n, 560) {
		plain.AddClause(cl...)
		compacted.AddClause(cl...)
	}
	nv := n
	for step := 0; step < 40; step++ {
		if step%3 == 0 {
			compacted.Compact()
			if c := cap(compacted.arena.data); c != len(compacted.arena.data) {
				t.Fatalf("step %d: arena capacity %d after Compact, length %d", step, c, len(compacted.arena.data))
			}
			if compacted.watchBlock != nil {
				t.Fatalf("step %d: Compact kept %d free watch slots", step, len(compacted.watchBlock))
			}
			for li, ws := range compacted.watches {
				if cap(ws) != len(ws) {
					t.Fatalf("step %d: watch list %d has capacity %d for %d watchers", step, li, cap(ws), len(ws))
				}
			}
		}
		if step%5 == 4 {
			// New variables append to every per-variable slice, which
			// Compact left without spare capacity.
			for i := 0; i < 3; i++ {
				plain.NewVar()
				compacted.NewVar()
				nv++
			}
		}
		for _, cl := range randomClauses(rng, nv, 6) {
			plain.AddClause(cl...)
			compacted.AddClause(cl...)
		}
		asm := make([]Lit, 1+rng.Intn(4))
		for i := range asm {
			asm[i] = NewLit(Var(1+rng.Intn(nv)), rng.Intn(2) == 0)
		}
		st, stc := plain.Solve(asm...), compacted.Solve(asm...)
		if st != stc {
			t.Fatalf("step %d: status %v, compacted twin %v", step, st, stc)
		}
		if plain.Stats != compacted.Stats {
			t.Fatalf("step %d: stats diverged:\n plain     %+v\n compacted %+v", step, plain.Stats, compacted.Stats)
		}
		if !slices.Equal(plain.Model(), compacted.Model()) {
			t.Fatalf("step %d: models diverged", step)
		}
		if !slices.Equal(plain.FinalCore(), compacted.FinalCore()) {
			t.Fatalf("step %d: final cores %v vs %v", step, plain.FinalCore(), compacted.FinalCore())
		}
		if st == Unsat && len(plain.FinalCore()) == 0 {
			break // unsatisfiable without assumptions: nothing left to search
		}
	}
	// The history must reach the paths that move clauses after a
	// compaction: learned-clause deletion and arena GC.
	if plain.Stats.Conflicts == 0 || plain.Stats.Deleted == 0 || plain.Stats.ArenaGCs == 0 {
		t.Fatalf("history too easy to exercise compaction: %+v", plain.Stats)
	}
}
