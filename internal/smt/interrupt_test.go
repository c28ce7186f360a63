package smt

import (
	"context"
	"testing"
)

// interruptContext builds a small MaxSAT problem: three soft variables
// that all want to be true, one hard mutual exclusion.
func interruptContext() *Context {
	c := NewContext()
	a, b, x := c.BoolVar(), c.BoolVar(), c.BoolVar()
	c.Assert(Or(Not(a), Not(b)))
	c.AssertSoft(a, 1, "a")
	c.AssertSoft(b, 1, "b")
	c.AssertSoft(x, 1, "x")
	return c
}

func TestMaximizeCanceledContext(t *testing.T) {
	for _, strategy := range []Strategy{Auto, LinearDescent, CoreGuided} {
		c := interruptContext()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		c.SetInterrupt(ctx)
		res := c.Maximize(strategy)
		if res.Err != context.Canceled {
			t.Errorf("strategy %v: Err = %v, want context.Canceled", strategy, res.Err)
		}
		if res.Model != nil {
			t.Errorf("strategy %v: interrupted maximize must not report a model", strategy)
		}
	}
}

func TestMaximizeBackgroundContext(t *testing.T) {
	c := interruptContext()
	c.SetInterrupt(context.Background())
	res := c.Maximize(LinearDescent)
	if res.Err != nil {
		t.Fatalf("background context must not interrupt: %v", res.Err)
	}
	// a and b are mutually exclusive, so the optimum violates exactly
	// one unit-weight soft constraint.
	if res.Model == nil || res.ViolatedWeight != 1 {
		t.Fatalf("expected optimal model violating weight 1, got %d", res.ViolatedWeight)
	}
}

func TestSetInterruptUninstall(t *testing.T) {
	c := interruptContext()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.SetInterrupt(ctx)
	c.SetInterrupt(nil) // uninstall: solver must run normally again
	res := c.Maximize(LinearDescent)
	if res.Err != nil || res.Model == nil {
		t.Fatalf("uninstalled interrupt still fired: err=%v", res.Err)
	}
}
