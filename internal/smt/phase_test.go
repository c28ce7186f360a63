package smt

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/aed-net/aed/internal/sat"
)

// TestLinearDescentResetsPhasesToBest guards the phase reset at the end
// of linear descent directly. It looks for a random MaxSAT instance on
// which the descent's failing bound call leaves the saved phases away
// from the best model: replayed by hand without the reset, a plain
// solve after the descent reaches some other model. On that instance,
// Maximize must leave the solver where a plain solve decides straight
// to the best model: the same assignment of every variable, with no
// conflict.
func TestLinearDescentResetsPhasesToBest(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		twin := phaseInstance(seed)
		best := descendWithoutReset(twin)
		if best == nil {
			continue // hard constraints unsat
		}
		if twin.solver.Solve() != sat.Sat {
			t.Fatalf("seed %d: hard constraints unsat after the descent", seed)
		}
		if slices.Equal(twin.solver.Model(), best) {
			continue // the failing call left the phases at best
		}
		c := phaseInstance(seed)
		res := c.Maximize(LinearDescent)
		if res.Model == nil {
			t.Fatalf("seed %d: no model", seed)
		}
		conflicts := c.solver.Stats.Conflicts
		if c.solver.Solve() != sat.Sat {
			t.Fatalf("seed %d: hard constraints unsat after Maximize", seed)
		}
		if !slices.Equal(c.solver.Model(), res.Model.assign) {
			t.Fatalf("seed %d: the search after linear descent reached another model than its best", seed)
		}
		if n := c.solver.Stats.Conflicts - conflicts; n != 0 {
			t.Fatalf("seed %d: the search after linear descent hit %d conflicts", seed, n)
		}
		return
	}
	t.Fatal("no instance whose failing bound call moves the saved phases")
}

// phaseInstance builds a seeded random weighted MaxSAT instance: 8
// variables, a few hard clauses and ten soft clauses of width 1–3.
func phaseInstance(seed int64) *Context {
	rng := rand.New(rand.NewSource(seed))
	c := NewContext()
	vars := make([]sat.Lit, 8)
	for i := range vars {
		vars[i] = c.BoolVar()
	}
	clause := func() []sat.Lit {
		ls := make([]sat.Lit, 1+rng.Intn(3))
		for i := range ls {
			ls[i] = vars[rng.Intn(len(vars))]
			if rng.Intn(2) == 1 {
				ls[i] = ls[i].Neg()
			}
		}
		return ls
	}
	for range 1 + rng.Intn(4) {
		c.Clause(clause()...)
	}
	for range 10 {
		c.AssertSoft(c.Or(clause()...), 1+rng.Intn(3), "")
	}
	return c
}

// descendWithoutReset runs maximizeLinear's search on a fresh context
// — the full totalizer, a first model, then a tighter bound per call
// until one fails — and returns the best model (nil when the hard
// constraints are unsat), leaving the saved phases where the failing
// call put them.
func descendWithoutReset(c *Context) []sat.Tribool {
	outs := c.softOuts(math.MaxInt)
	if c.solveTimed() != sat.Sat {
		return nil
	}
	best := c.solver.Model()
	for cost := c.costOf(best); cost > 0; cost = c.costOf(best) {
		if c.solveTimed(outs[cost-1].Neg()) != sat.Sat {
			break
		}
		best = c.solver.Model()
	}
	return best
}
