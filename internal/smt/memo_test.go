package smt

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// TestFormulaSize: the node-resident hash and Tseitin memo must not
// push Formula out of the 48-byte allocation size class.
func TestFormulaSize(t *testing.T) {
	if n := unsafe.Sizeof(Formula{}); n > 48 {
		t.Errorf("unsafe.Sizeof(Formula{}) = %d, want <= 48", n)
	}
}

// TestConstructorHashIsStructural: structurally equal formulas built
// separately get equal hashes, so the intern table can find them.
func TestConstructorHashIsStructural(t *testing.T) {
	c := NewContext()
	a, b, x := c.BoolVar(), c.BoolVar(), c.BoolVar()
	f := Or(And(a, Not(b)), x)
	g := Or(And(a, Not(b)), x)
	if f == g || f.hash != g.hash || !structEq(f, g) {
		t.Errorf("rebuilt formula: hash %x vs %x, structEq %v", f.hash, g.hash, structEq(f, g))
	}
	if h := Or(And(a, Not(x)), b); h.hash == f.hash && structEq(h, f) {
		t.Error("different formulas compare equal")
	}
}

// varContext returns a context with n boolean variables.
func varContext(n int) (*Context, []*Formula) {
	c := NewContext()
	vs := make([]*Formula, n)
	for i := range vs {
		vs[i] = c.BoolVar()
	}
	return c, vs
}

// TestNodeEncodedInTwoContexts: one formula DAG encoded in a second
// context after the first (same variable indices) yields correct,
// independent CNF in each. The first context keeps its literals on the
// nodes; the second memoizes them on the side and emits exactly the CNF
// a fresh copy of the formula would get.
func TestNodeEncodedInTwoContexts(t *testing.T) {
	c1, v := varContext(3)
	c2, _ := varContext(3)
	shared := And(Or(v[0], v[1]), Not(v[2]))
	f := Or(shared, And(v[0], v[2]))

	c1.Assert(f)
	vars1, clauses1 := c1.NumSATVars(), c1.NumSATClauses()
	c2.Assert(f)
	if c2.NumSATVars() != vars1 || c2.NumSATClauses() != clauses1 {
		t.Errorf("second context: %d vars %d clauses, first had %d/%d",
			c2.NumSATVars(), c2.NumSATClauses(), vars1, clauses1)
	}
	// Re-encoding is memoized in both contexts: no new CNF.
	c1.Assert(f)
	c2.Assert(f)
	if c1.NumSATVars() != vars1 || c2.NumSATVars() != vars1 {
		t.Errorf("re-encoding grew the CNF: %d and %d vars, want %d", c1.NumSATVars(), c2.NumSATVars(), vars1)
	}

	// Independence: pinning shared false in c2 alone leaves c1 free.
	c2.Assert(Not(shared))
	m2 := c2.Solve()
	if m2 == nil || !m2.Eval(f) || m2.Eval(shared) {
		t.Fatalf("c2: want a model of f with shared false, got %v", m2)
	}
	c1.Assert(Not(v[0]))
	m1 := c1.Solve()
	if m1 == nil || !m1.Eval(f) || !m1.Eval(shared) {
		t.Fatalf("c1: want a model of f through shared, got %v", m1)
	}
	// Each context's constraints bind only itself: c2 becomes unsat,
	// c1 stays sat.
	c2.Assert(Not(v[2]))
	if c2.Solve() != nil {
		t.Error("c2: f ∧ ¬shared ∧ ¬v2 must be unsat")
	}
	if c1.Solve() == nil {
		t.Error("c1 became unsat through c2's constraints")
	}

	// A node first reached through c2 after c1 stamped its parent: a
	// fresh parent over the shared child encodes fine in both.
	g := And(shared, v[1])
	c2b, _ := varContext(3)
	c2b.Assert(g)
	c1.Assert(g)
	if m := c2b.Solve(); m == nil || !m.Eval(g) {
		t.Error("fresh context: g must be satisfiable")
	}
	if m := c1.Solve(); m == nil || !m.Eval(g) || !m.Eval(f) {
		t.Error("c1: f ∧ g ∧ ¬v0 must be satisfiable")
	}
}

// TestInternedAgreesWithNoIntern: on random formulas with structurally
// duplicated subtrees (rebuilt, not shared), solving with structural
// interning on and off gives the same verdict and the same MaxSAT
// optimum, and interning never emits more CNF.
func TestInternedAgreesWithNoIntern(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		var cost [2]int
		var sat [2]bool
		var vars, clauses [2]int
		for mode, intern := range []bool{true, false} {
			rng := rand.New(rand.NewSource(seed))
			c, v := varContext(4 + int(seed%3))
			c.SetInterning(intern)
			// Each hard formula is drawn twice from one seed, so the
			// copies are structurally equal but not pointer-shared.
			for i := 0; i < 3; i++ {
				state := rng.Int63()
				c.Assert(randomFormula(rand.New(rand.NewSource(state)), v, 4))
				c.Assert(Or(randomFormula(rand.New(rand.NewSource(state)), v, 4), v[i]))
			}
			for i := 0; i < 4; i++ {
				c.AssertSoft(randomFormula(rng, v, 3), 1+rng.Intn(3), "s")
			}
			clauses[mode] = c.NumSATClauses()
			r := c.Maximize(LinearDescent)
			sat[mode] = r.Model != nil
			cost[mode] = r.ViolatedWeight
			vars[mode] = c.NumSATVars()
		}
		if sat[0] != sat[1] || (sat[0] && cost[0] != cost[1]) {
			t.Fatalf("seed %d: interned sat=%v cost=%d, NoIntern sat=%v cost=%d",
				seed, sat[0], cost[0], sat[1], cost[1])
		}
		if vars[0] > vars[1] {
			t.Errorf("seed %d: interning used %d vars, more than %d without", seed, vars[0], vars[1])
		}
		if clauses[0] > clauses[1] {
			t.Errorf("seed %d: interning emitted %d clauses, more than %d without", seed, clauses[0], clauses[1])
		}
	}
}

// TestConstantsSharedAcrossConcurrentContexts: TrueF and FalseF are the
// only nodes every context shares, so concurrent contexts must encode
// them without writing to them (run under -race).
func TestConstantsSharedAcrossConcurrentContexts(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, v := varContext(2)
			c.Assert(Or(v[0], v[1]))
			c.AssertSoft(TrueF, 1, "t")
			c.AssertSoft(FalseF, 2, "f")
			c.AssertSoft(And(v[0], v[1]), 3, "both")
			if r := c.Maximize(LinearDescent); r.Model == nil || r.ViolatedWeight != 2 {
				t.Errorf("cost %d (model %v), want 2", r.ViolatedWeight, r.Model != nil)
			}
			if c.SolveAssuming(Not(v[0])) == nil || c.Solve() == nil {
				t.Error("want sat")
			}
		}()
	}
	wg.Wait()
}

// TestNodeEncodedConcurrently: contexts that encode one shared formula
// DAG at the same time each get their own correct CNF. Exactly one
// context wins each node's stamp; the others memoize it on the side,
// and none reads another's literal (run under -race).
func TestNodeEncodedConcurrently(t *testing.T) {
	const workers, nvars = 4, 6
	_, v := varContext(nvars)
	draw := func() []*Formula {
		rng := rand.New(rand.NewSource(7))
		fs := make([]*Formula, 1000)
		for i := range fs {
			fs[i] = randomFormula(rng, v, 5)
		}
		return fs
	}
	// A context encoding its own structural copy gives the reference
	// sizes and leaves the shared nodes unstamped. Interning is off, so
	// the node memo alone must find every encoded node again.
	ref, _ := varContext(nvars)
	ref.SetInterning(false)
	for _, f := range draw() {
		ref.Assert(Or(f, Not(f)))
	}
	wantVars, wantClauses := ref.NumSATVars(), ref.NumSATClauses()
	fs := draw()

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, _ := varContext(nvars)
			c.SetInterning(false)
			<-start
			for _, f := range fs {
				c.Assert(Or(f, Not(f)))
			}
			if c.NumSATVars() != wantVars || c.NumSATClauses() != wantClauses {
				t.Errorf("%d vars %d clauses, want %d/%d", c.NumSATVars(), c.NumSATClauses(), wantVars, wantClauses)
			}
			// Every node's literal stays retrievable: re-encoding after
			// all workers have stamped emits nothing.
			for _, f := range fs {
				c.Assert(Or(f, Not(f)))
			}
			if c.NumSATVars() != wantVars {
				t.Errorf("re-encoding grew the CNF to %d vars, want %d", c.NumSATVars(), wantVars)
			}
			// Each formula's literal must be this context's: forcing f
			// true (false) through its literal must agree with Eval.
			for i, f := range fs[:32] {
				for _, want := range []bool{true, false} {
					g := f
					if !want {
						g = Not(f)
					}
					m := c.SolveAssuming(g)
					if m == nil {
						continue // f is constant under this polarity
					}
					if m.Eval(f) != want {
						t.Errorf("formula %d: model forced %v evaluates %v", i, want, !want)
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}
