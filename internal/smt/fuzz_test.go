package smt

import (
	"testing"

	"github.com/aed-net/aed/internal/sat"
)

// fuzzInstance decodes a small MaxSAT instance: data[0] picks 2–6
// variables; each later clause starts with a header byte whose bits 0–1
// pick hard (0, 1), soft (2) or retractable (3), bits 2–3 its width
// (1–3 literals) and bits 4–5 its soft weight (1–4), then one byte per
// literal (bit 0 the sign, the rest the variable). Only the first
// retractable clause is retractable; later ones are hard. The last
// byte picks the edit between the two searches.
type fuzzInstance struct {
	n       int
	hard    [][]sat.Lit
	soft    [][]sat.Lit
	weights []int
	retract []sat.Lit // nil when the input names none
	flip    bool      // edit: assert ¬retract instead of dropping it
}

func decodeFuzzInstance(c *Context, data []byte) (fuzzInstance, []sat.Lit) {
	in := fuzzInstance{n: 2 + int(data[0])%5}
	vars := make([]sat.Lit, in.n)
	for i := range vars {
		vars[i] = c.BoolVar()
	}
	in.flip = data[len(data)-1]&1 == 1
	for p := 1; p < len(data) && len(in.hard)+len(in.soft) < 12; {
		h := data[p]
		p++
		width := 1 + int(h>>2&3)%3
		var clause []sat.Lit
		for ; width > 0 && p < len(data); width-- {
			b := data[p]
			p++
			l := vars[int(b>>1)%in.n]
			if b&1 == 1 {
				l = l.Neg()
			}
			clause = append(clause, l)
		}
		if len(clause) == 0 {
			break
		}
		switch {
		case h&3 == 2:
			in.soft = append(in.soft, clause)
			in.weights = append(in.weights, 1+int(h>>4&3))
		case h&3 == 3 && in.retract == nil:
			in.retract = clause
		default:
			in.hard = append(in.hard, clause)
		}
	}
	return in, vars
}

// holds reports whether the clause holds with vars[i] bound to bit i of
// assignment.
func holds(clause, vars []sat.Lit, assignment uint) bool {
	for _, l := range clause {
		i := uint(l.Var() - vars[0].Var())
		if (assignment>>i&1 == 1) != l.Sign() {
			return true
		}
	}
	return false
}

// modelHolds reports whether the clause holds in m.
func modelHolds(clause []sat.Lit, m *Model) bool {
	for _, l := range clause {
		if m.Bool(l) {
			return true
		}
	}
	return false
}

// bruteOptimum returns the minimum violated soft weight over all
// assignments satisfying hard plus the extra clauses, or -1 when there
// is none.
func (in fuzzInstance) bruteOptimum(vars []sat.Lit, extra ...[]sat.Lit) int {
	best := -1
	for m := uint(0); m < 1<<uint(in.n); m++ {
		ok := true
		for _, cl := range append(append([][]sat.Lit(nil), in.hard...), extra...) {
			if !holds(cl, vars, m) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		cost := 0
		for i, cl := range in.soft {
			if !holds(cl, vars, m) {
				cost += in.weights[i]
			}
		}
		if best == -1 || cost < best {
			best = cost
		}
	}
	return best
}

// FuzzMaxSAT drives the mixed search sequence a live instance sees:
// Maximize(Auto) on the fresh context (core-guided), an edit to its one
// retractable assertion (retract it, or flip it to its negation),
// Maximize(Auto) again (linear descent over the retired core-guided
// scaffolding), then the original assertion restored and a third
// search. Every optimum must equal the brute-force optimum, and every
// model must satisfy the active hard constraints at its reported cost.
func FuzzMaxSAT(f *testing.F) {
	f.Add([]byte{1, 4, 0, 2, 2, 1, 18, 3, 3, 4, 2, 5, 1})
	f.Add([]byte{1, 4, 0, 2, 2, 1, 18, 3, 3, 4, 2, 5, 0})
	f.Add([]byte{2, 8, 0, 2, 4, 50, 1, 6, 3, 5, 7, 1, 3, 34, 6, 0, 7, 1})
	f.Add([]byte{0, 0, 0, 3, 1, 2, 2, 0})
	f.Add([]byte{0, 0, 0, 3, 1, 2, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		c := NewContext()
		in, vars := decodeFuzzInstance(c, data)
		if in.retract == nil || len(in.soft) == 0 {
			t.Skip()
		}
		for _, h := range in.hard {
			c.Clause(h...)
		}
		for i, s := range in.soft {
			c.AssertSoft(c.Or(s...), in.weights[i], "s")
		}
		check := func(step string, want Strategy, active ...[]sat.Lit) {
			t.Helper()
			r := c.Maximize(Auto)
			if r.Err != nil {
				t.Fatalf("%s: %v", step, r.Err)
			}
			if r.Search != want {
				t.Fatalf("%s: Auto ran %v, want %v", step, r.Search, want)
			}
			best := in.bruteOptimum(vars, active...)
			if best == -1 {
				if r.Model != nil {
					t.Fatalf("%s: model for an unsatisfiable instance", step)
				}
				return
			}
			if r.Model == nil {
				t.Fatalf("%s: no model, brute optimum %d", step, best)
			}
			if r.ViolatedWeight != best {
				t.Fatalf("%s: violated=%d, brute optimum=%d", step, r.ViolatedWeight, best)
			}
			cost := 0
			for i, s := range in.soft {
				if !modelHolds(s, r.Model) {
					cost += in.weights[i]
				}
			}
			for _, h := range append(append([][]sat.Lit(nil), in.hard...), active...) {
				if !modelHolds(h, r.Model) {
					t.Fatalf("%s: model violates a hard constraint", step)
				}
			}
			if cost != r.ViolatedWeight {
				t.Fatalf("%s: model cost %d, reported %d", step, cost, r.ViolatedWeight)
			}
		}

		h := c.AssertRetractable(in.retract)
		check("first search", CoreGuided, in.retract)

		c.Retract(h)
		if in.flip {
			// ¬retract: every literal of the clause false.
			negated := make([][]sat.Lit, len(in.retract))
			for i, l := range in.retract {
				negated[i] = []sat.Lit{l.Neg()}
			}
			flipped := c.AssertRetractable(negated...)
			check("after flip", LinearDescent, negated...)
			c.Retract(flipped)
		} else {
			check("after retract", LinearDescent)
		}

		c.Reassert(h)
		check("after reassert", LinearDescent, in.retract)
	})
}

// FuzzNatCompare runs a random sequence of order-encoding comparisons
// on two or three NatVars of one context and checks each against
// integer arithmetic for every value tuple. data[0] picks the variable
// count and data[1..3] their bounds (0–4); each later 4-byte group is
// one call: the comparison, its operands, two offsets in −3..4 and a
// constant in −2..5. Each call is asserted under a fresh guard: through
// AssertLeUnder or AssertEqUnder for a comparison of two NatVars, as a
// guarded clause over the LeConst or EqConstNat literal otherwise.
// Under its guard the comparison must hold exactly; with every guard
// false the guarded assertions must constrain nothing, and a literal
// comparison must read in the model as the values compare.
func FuzzNatCompare(f *testing.F) {
	f.Add([]byte{0, 3, 4, 0, 0, 0x10, 0x43, 0, 0, 0x10, 0x54, 0, 1, 0x01, 0x33, 0})
	f.Add([]byte{1, 4, 2, 3, 2, 0x21, 0x31, 2, 3, 0x10, 0x70, 5, 4, 0x02, 0, 3})
	f.Add([]byte{1, 0, 4, 1, 0, 0x12, 0x25, 0, 1, 0x21, 0x36, 0, 2, 0x11, 0x03, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			t.Skip()
		}
		n := 2 + int(data[0])%2
		c := NewContext()
		vars := make([]*NatVar, n)
		for i := range vars {
			vars[i] = c.NatVarOf(int(data[1+i]) % 5)
		}
		type call struct {
			lit   sat.Lit // the comparison's literal; 0 for two NatVars
			guard sat.Lit // guard → the comparison, asserted as clauses
			want  func(vals []int) bool
		}
		var calls []call
		for p := 4; p+4 <= len(data) && len(calls) < 10; p += 4 {
			ai, bi := int(data[p+1])%n, int(data[p+1]>>4)%n
			da, db := int(data[p+2]&7)-3, int(data[p+2]>>4&7)-3
			k := int(data[p+3]%8) - 2
			a, b := vars[ai], vars[bi]
			cl := call{guard: c.BoolVar()}
			g := []sat.Lit{cl.guard}
			switch data[p] % 5 {
			case 0:
				c.AssertLeUnder(g, a, da, b, db)
				cl.want = func(v []int) bool { return v[ai]+da <= v[bi]+db }
			case 1:
				c.AssertLeUnder(g, a, da+1, b, db)
				cl.want = func(v []int) bool { return v[ai]+da < v[bi]+db }
			case 2:
				c.AssertEqUnder(g, a, b, da)
				cl.want = func(v []int) bool { return v[ai] == v[bi]+da }
			case 3:
				cl.lit = a.LeConst(k)
				cl.want = func(v []int) bool { return v[ai] <= k }
			case 4:
				cl.lit = a.EqConstNat(k)
				cl.want = func(v []int) bool { return v[ai] == k }
			}
			if cl.lit != 0 {
				c.ClauseUnder(g, cl.lit)
			}
			calls = append(calls, cl)
		}
		if len(calls) == 0 {
			t.Skip()
		}

		// Every value tuple, fixed through assumptions on the ladders.
		vals := make([]int, n)
		var visit func(i int)
		visit = func(i int) {
			if i < n {
				for v := 0; v <= vars[i].max; v++ {
					vals[i] = v
					visit(i + 1)
				}
				return
			}
			var asm []sat.Lit
			for j, x := range vars {
				for k := 1; k <= x.max; k++ {
					if k <= vals[j] {
						asm = append(asm, x.GeConst(k))
					} else {
						asm = append(asm, x.GeConst(k).Neg())
					}
				}
			}
			// Every guard false: the guarded assertions constrain nothing.
			off := len(asm)
			for _, cl := range calls {
				asm = append(asm, cl.guard.Neg())
			}
			m := c.SolveAssuming(asm...)
			if m == nil {
				t.Fatalf("values %v: unsat with every guard false", vals)
			}
			// One guard true: its comparison holds exactly.
			for ci, cl := range calls {
				asm[off+ci] = cl.guard
				sat := c.SolveAssuming(asm...) != nil
				asm[off+ci] = cl.guard.Neg()
				if want := cl.want(vals); sat != want {
					t.Fatalf("values %v, call %d: guarded clauses sat=%v, want %v", vals, ci, sat, want)
				}
			}
			for ci, cl := range calls {
				if got, want := m.Bool(cl.lit), cl.want(vals); cl.lit != 0 && got != want {
					t.Fatalf("values %v, call %d: the literal reads %v, want %v", vals, ci, got, want)
				}
			}
		}
		visit(0)
	})
}
