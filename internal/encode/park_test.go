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

// watchGates sets a finalizer on every gate node (neither a variable
// nor a constant) held by e's filter-chain cache, its environments'
// forwarding maps, the threshold-negation memos of its best-cost
// variables, the threshold memos of the local-preference variables its
// BGP comparisons read (the best records' and the filter chains') and
// its aux deltas — nodes nothing but the encoder's caches, the NatVars,
// the IntVars and the delta list reaches once the formulas are asserted
// — and returns how many it watches and a counter of those collected.
// It keeps no reference to the nodes itself.
func watchGates(e *Encoder) (int64, *atomic.Int64) {
	freed := new(atomic.Int64)
	var n int64
	seen := map[*smt.Formula]bool{}
	watch := func(f *smt.Formula) {
		if f == smt.TrueF || f == smt.FalseF || f.IsVar() || seen[f] {
			return
		}
		seen[f] = true
		n++
		runtime.SetFinalizer(f, func(*smt.Formula) { freed.Add(1) })
	}
	watchLP := func(lp *smt.IntVar) {
		for _, d := range lp.Domain() {
			watch(lp.LeConst(d))
			watch(lp.LtConst(d))
			watch(lp.GeConst(d))
			watch(lp.GtConst(d))
		}
	}
	for _, c := range e.rfChainCache {
		watch(c.allow)
		if c.lp != nil {
			watchLP(c.lp)
		}
	}
	for _, d := range e.Deltas() {
		if d.Aux {
			watch(d.Bool)
		}
	}
	for _, v := range e.envs {
		for _, f := range v.controlFwd {
			watch(f)
		}
		for _, c := range v.bestCost {
			for k := 0; k < c.Max(); k++ {
				watch(c.LeConst(k))
			}
		}
		for _, lp := range v.bestLP {
			watchLP(lp)
		}
	}
	return n, freed
}

// TestParkFreesFormulaDAG parks a solved live encoder, under OSPF and
// under BGP, and checks that the garbage collector then reclaims
// formula nodes only its caches and its NatVars' and IntVars' threshold
// memos held; the parked instance must still rebind, including to a
// local preference it first sees after the park, and agree with a cold
// encode.
func TestParkFreesFormulaDAG(t *testing.T) {
	for _, proto := range []config.Proto{config.OSPF, config.BGP} {
		t.Run(proto.String(), func(t *testing.T) { testParkFreesFormulaDAG(t, proto) })
	}
}

func testParkFreesFormulaDAG(t *testing.T, proto config.Proto) {
	net, _ := rebindNet(t, proto)
	e, cold := solveLive(t, net)
	watched, freed := watchGates(e)
	if watched == 0 {
		t.Fatal("no gate nodes to watch")
	}
	e.Park()
	deadline := time.Now().Add(10 * time.Second)
	for freed.Load() < watched {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d watched formula nodes collected after Park", freed.Load(), watched)
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
