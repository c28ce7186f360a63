package encode

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/smt"
)

// watchEncodeState sets a finalizer on what only e's encoding reads
// once the constraints are asserted — its environment copies, their
// best-record NatVars and IntVars, the local-preference IntVars of its
// route-filter chains and its aux deltas — and returns how many it
// watches and a counter of those collected. It keeps no reference to
// them itself.
func watchEncodeState(e *Encoder) (int64, *atomic.Int64) {
	freed := new(atomic.Int64)
	var n int64
	watch := func(obj any) {
		n++
		switch o := obj.(type) {
		case *env:
			runtime.SetFinalizer(o, func(*env) { freed.Add(1) })
		case *smt.NatVar:
			runtime.SetFinalizer(o, func(*smt.NatVar) { freed.Add(1) })
		case *smt.IntVar:
			runtime.SetFinalizer(o, func(*smt.IntVar) { freed.Add(1) })
		case *Delta:
			runtime.SetFinalizer(o, func(*Delta) { freed.Add(1) })
		}
	}
	for _, c := range e.rfChainCache {
		if c.lp != nil {
			watch(c.lp)
		}
	}
	for _, d := range e.Deltas() {
		if d.Aux {
			watch(d)
		}
	}
	for _, v := range e.envs {
		watch(v)
		for _, c := range v.bestCost {
			watch(c)
		}
		for _, lp := range v.bestLP {
			watch(lp)
		}
	}
	return n, freed
}

// TestParkFreesFormulaDAG parks a solved live encoder, under OSPF and
// under BGP, and checks that the garbage collector then reclaims what
// only encoding read — once the formula DAG, now the environments,
// their best records, the route-filter chains' lp variables and the
// aux deltas (watchEncodeState); the parked instance must still
// rebind, including to a local preference it first sees after the
// park, and agree with a cold encode.
func TestParkFreesFormulaDAG(t *testing.T) {
	for _, proto := range []config.Proto{config.OSPF, config.BGP} {
		t.Run(proto.String(), func(t *testing.T) { testParkFreesFormulaDAG(t, proto) })
	}
}

func testParkFreesFormulaDAG(t *testing.T, proto config.Proto) {
	net, _ := rebindNet(t, proto)
	e, cold := solveLive(t, net)
	watched, freed := watchEncodeState(e)
	if watched == 0 {
		t.Fatal("no encode-time state to watch")
	}
	e.Park()
	deadline := time.Now().Add(10 * time.Second)
	for freed.Load() < watched {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d watched encode-time objects collected after Park", freed.Load(), watched)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}

	for _, d := range e.Deltas() {
		if d.Aux {
			t.Fatalf("aux delta %s still listed after Park", d.Name)
		}
	}
	if len(e.Deltas()) == cold.NumDeltas {
		t.Fatalf("Park kept all %d deltas: the fixture has no aux delta to drop", cold.NumDeltas)
	}

	// 120 has no retractable anchor yet: the rebind asserts one on the
	// parked context.
	edited := editedClone(net, func(r *config.RouteRule) { r.LocalPref = 120 })
	if swapped, ok := e.Rebind(edited); !ok || swapped == 0 {
		t.Fatalf("lp edit after Park: ok=%v swapped=%d", ok, swapped)
	}
	if warm := e.ReSolveContext(context.Background(), smt.LinearDescent); warm.NumDeltas != cold.NumDeltas {
		t.Errorf("re-solve after Park reports %d deltas, the cold encode %d", warm.NumDeltas, cold.NumDeltas)
	}
	agreeWithCold(t, e, edited)
	e.Park() // a second park is a no-op

	denied := editedClone(edited, func(r *config.RouteRule) { r.Permit = false })
	if _, ok := e.Rebind(denied); !ok {
		t.Fatal("permit flip after Park should be rebindable")
	}
	agreeWithCold(t, e, denied)
	back := editedClone(denied, func(r *config.RouteRule) { r.Permit, r.LocalPref = true, 110 })
	if _, ok := e.Rebind(back); !ok {
		t.Fatal("restoring the original rule after Park should be rebindable")
	}
	agreeWithCold(t, e, back)
}
