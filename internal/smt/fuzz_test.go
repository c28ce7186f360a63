package smt

import "testing"

// fuzzInstance decodes a small MaxSAT instance: data[0] picks 2–6
// variables; each later clause starts with a header byte whose bits 0–1
// pick hard (0, 1), soft (2) or retractable (3), bits 2–3 its width
// (1–3 literals) and bits 4–5 its soft weight (1–4), then one byte per
// literal (bit 0 the sign, the rest the variable). Only the first
// retractable clause is retractable; later ones are hard. The last
// byte picks the edit between the two searches.
type fuzzInstance struct {
	n       int
	hard    []*Formula
	soft    []*Formula
	weights []int
	retract *Formula // nil when the input names none
	flip    bool     // edit: assert ¬retract instead of dropping it
}

func decodeFuzzInstance(c *Context, data []byte) (fuzzInstance, []*Formula) {
	in := fuzzInstance{n: 2 + int(data[0])%5}
	vars := make([]*Formula, in.n)
	for i := range vars {
		vars[i] = c.BoolVar("v")
	}
	in.flip = data[len(data)-1]&1 == 1
	for p := 1; p < len(data) && len(in.hard)+len(in.soft) < 12; {
		h := data[p]
		p++
		width := 1 + int(h>>2&3)%3
		var lits []*Formula
		for ; width > 0 && p < len(data); width-- {
			b := data[p]
			p++
			l := vars[int(b>>1)%in.n]
			if b&1 == 1 {
				l = Not(l)
			}
			lits = append(lits, l)
		}
		if len(lits) == 0 {
			break
		}
		clause := Or(lits...)
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

// bruteOptimum returns the minimum violated soft weight over all
// assignments satisfying hard plus extra, or -1 when there is none.
func (in fuzzInstance) bruteOptimum(vars []*Formula, extra ...*Formula) int {
	best := -1
	for m := uint(0); m < 1<<uint(in.n); m++ {
		ok := true
		for _, f := range append(append([]*Formula(nil), in.hard...), extra...) {
			if !evalUnder(f, vars, m) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		cost := 0
		for i, f := range in.soft {
			if !evalUnder(f, vars, m) {
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
			c.Assert(h)
		}
		for i, s := range in.soft {
			c.AssertSoft(s, in.weights[i], "s")
		}
		check := func(step string, want Strategy, active ...*Formula) {
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
				if !r.Model.Eval(s) {
					cost += in.weights[i]
				}
			}
			for _, h := range append(append([]*Formula(nil), in.hard...), active...) {
				if !r.Model.Eval(h) {
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
			flipped := c.AssertRetractable(Not(in.retract))
			check("after flip", LinearDescent, Not(in.retract))
			c.Retract(flipped)
		} else {
			check("after retract", LinearDescent)
		}

		c.Reassert(h)
		check("after reassert", LinearDescent, in.retract)
	})
}
