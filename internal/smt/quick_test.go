package smt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/aed-net/aed/internal/sat"
)

// TestQuickIntVarComparisons: IntGe, IntGt and AssertIntEqUnder, and
// the memoized threshold comparisons with a constant, agree with
// integer arithmetic for random domains and forced values.
func TestQuickIntVarComparisons(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		domA := randDomain(rng)
		domB := randDomain(rng)
		va := domA[rng.Intn(len(domA))]
		vb := domB[rng.Intn(len(domB))]
		k := rng.Intn(14) - 1

		type cmp struct {
			assert func(c *Context, a, b *IntVar)
			want   bool
		}
		lit := func(build func(a, b *IntVar) sat.Lit) func(c *Context, a, b *IntVar) {
			return func(c *Context, a, b *IntVar) { c.Clause(build(a, b)) }
		}
		cases := []cmp{
			{func(c *Context, a, b *IntVar) { c.AssertIntEqUnder(nil, a, b) }, va == vb},
			{lit(IntGt), va > vb},
			{lit(IntGe), va >= vb},
			{lit(func(a, _ *IntVar) sat.Lit { return a.LeConst(k) }), va <= k},
			{lit(func(a, _ *IntVar) sat.Lit { return a.LtConst(k) }), va < k},
			{lit(func(a, _ *IntVar) sat.Lit { return a.GeConst(k) }), va >= k},
			{lit(func(a, _ *IntVar) sat.Lit { return a.GtConst(k) }), va > k},
		}
		for i, cse := range cases {
			c := NewContext()
			a := c.IntVarOf(domA)
			b := c.IntVarOf(domB)
			// Fill a's threshold memo first, from every constant and in
			// an order of its own, so the comparison is served from it.
			for _, x := range rng.Perm(14) {
				a.GtConst(x - 1)
				a.LtConst(x - 1)
			}
			c.Clause(a.EqConst(va))
			c.Clause(b.EqConst(vb))
			cse.assert(c, a, b)
			if (c.Solve() != nil) != cse.want {
				t.Logf("seed %d case %d: a=%d b=%d k=%d want %v", seed, i, va, vb, k, cse.want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func randDomain(rng *rand.Rand) []int {
	n := 1 + rng.Intn(4)
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(12)
	}
	return out
}

// TestQuickNatOrderEncoding: NatValue after constraining to a constant
// round-trips, and AssertEqUnder with an offset is functional.
func TestQuickNatOrderEncoding(t *testing.T) {
	f := func(vRaw, maxRaw, offRaw uint8) bool {
		max := 1 + int(maxRaw%12)
		v := int(vRaw) % (max + 1)
		off := int(offRaw%5) - 2
		c := NewContext()
		a := c.NatVarOf(max)
		b := c.NatVarOf(max)
		c.Clause(b.EqConstNat(v))
		c.AssertEqUnder(nil, a, b, off)
		m := c.Solve()
		want := v+off >= 0 && v+off <= max
		if (m != nil) != want {
			return false
		}
		if m != nil && m.NatValue(a) != v+off {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickCardinality: atMost(k) models never exceed k true inputs,
// and at-least-k, stated as at most n-k of the negations, never falls
// short.
func TestQuickCardinality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		k := rng.Intn(n + 1)
		c := NewContext()
		vs := make([]sat.Lit, n)
		for i := range vs {
			vs[i] = c.BoolVar()
		}
		count := func(m *Model) int {
			count := 0
			for _, v := range vs {
				if m.Bool(v) {
					count++
				}
			}
			return count
		}
		if rng.Intn(2) == 0 {
			c.atMost(k, vs)
			// Maximize trues via soft constraints to stress the bound.
			for _, v := range vs {
				c.AssertSoft(v, 1, "t")
			}
			r := c.Maximize(LinearDescent)
			return r.Model != nil && count(r.Model) == k // the maximum respects the bound tightly
		}
		neg := make([]sat.Lit, n)
		for i, v := range vs {
			neg[i] = v.Neg()
		}
		c.atMost(n-k, neg)
		for _, v := range vs {
			c.AssertSoft(v.Neg(), 1, "f")
		}
		r := c.Maximize(LinearDescent)
		return r.Model != nil && count(r.Model) == k // the minimum meets the bound tightly
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
