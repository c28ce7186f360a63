package encode

import (
	"math/rand"
	"testing"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/sat"
	"github.com/aed-net/aed/internal/simulate"
	"github.com/aed-net/aed/internal/topology"
)

// TestModelMatchesSimulator is the model-fidelity property: on random
// unmodified networks (every delta variable forced false), the
// symbolic routing model must agree with the concrete simulator about
// whether each traffic class is delivered. Any divergence here is
// exactly the class of bug that makes synthesized configs fail
// validation, so this test pins the two semantics together.
func TestModelMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for iter := 0; iter < 30; iter++ {
		var topo *topology.Topology
		switch rng.Intn(3) {
		case 0:
			topo = topology.LeafSpine(2+rng.Intn(3), 1+rng.Intn(2), 1)
		case 1:
			topo = topology.Zoo(4+rng.Intn(5), int64(iter)*3+1)
		default:
			topo = topology.Line(3 + rng.Intn(3))
		}
		proto := []config.Proto{config.OSPF, config.BGP, config.RIP}[rng.Intn(3)]
		net := configgen.Generate(topo, configgen.Options{
			Protocol:        proto,
			WithRoleFilters: rng.Intn(2) == 0,
			Seed:            int64(iter),
		})
		// Random extra blocking filter to exercise filtered paths.
		if rng.Intn(2) == 0 && len(topo.Subnets) >= 2 {
			victim := topo.Subnets[rng.Intn(len(topo.Subnets))]
			router := net.Routers[victim.Router]
			if len(router.Interfaces) > 0 {
				iface := router.Interfaces[rng.Intn(len(router.Interfaces))]
				if iface.FilterIn == "" && len(iface.Name) > 4 && iface.Name[:4] == "eth-" {
					router.PacketFilters = append(router.PacketFilters, &config.PacketFilter{
						Name: "rndblk",
						Rules: []*config.PacketRule{
							{Permit: false, Src: topo.Subnets[0].Prefix, Dst: victim.Prefix},
							{Permit: true},
						},
					})
					iface.FilterIn = "rndblk"
				}
			}
		}

		sim := simulate.New(net, topo)
		// Pick up to 4 random (src, dst) subnet pairs.
		for pair := 0; pair < 4; pair++ {
			src := topo.Subnets[rng.Intn(len(topo.Subnets))].Prefix
			dst := topo.Subnets[rng.Intn(len(topo.Subnets))].Prefix
			if src.Equal(dst) {
				continue
			}
			_, st := sim.Path(src, dst)
			delivered := st == simulate.Delivered

			e := New(net, topo, dst, DefaultOptions())
			if err := e.EncodePolicies([]policy.Policy{{
				Kind: policy.Reachability, Src: src, Dst: dst,
			}}); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			// Freeze the sketch: no changes allowed.
			for _, d := range e.Deltas() {
				if !d.Aux {
					e.Ctx.Clause(d.Bool.Neg())
				}
			}
			model := e.Ctx.Solve()
			gotDelivered := model != nil
			if gotDelivered != delivered {
				t.Errorf("iter %d (%s, %s): model delivered=%v simulator=%v for %s -> %s",
					iter, topo.Name, proto, gotDelivered, delivered, src, dst)
			}
		}
	}
}

// TestModelMatchesSimulatorBlocking: same property through the
// blocking constraint (the negated reach side).
func TestModelMatchesSimulatorBlocking(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for iter := 0; iter < 15; iter++ {
		topo := topology.Zoo(4+rng.Intn(4), int64(iter)*7+2)
		net := configgen.Generate(topo, configgen.Options{Protocol: config.BGP, Seed: int64(iter)})
		sim := simulate.New(net, topo)
		src := topo.Subnets[rng.Intn(len(topo.Subnets))].Prefix
		dst := topo.Subnets[rng.Intn(len(topo.Subnets))].Prefix
		if src.Equal(dst) {
			continue
		}
		_, st := sim.Path(src, dst)
		delivered := st == simulate.Delivered

		e := New(net, topo, dst, DefaultOptions())
		if err := e.EncodePolicies([]policy.Policy{{
			Kind: policy.Blocking, Src: src, Dst: dst,
		}}); err != nil {
			t.Fatal(err)
		}
		for _, d := range e.Deltas() {
			if !d.Aux {
				e.Ctx.Clause(d.Bool.Neg())
			}
		}
		model := e.Ctx.Solve()
		blockingSat := model != nil
		// Consistency: a frozen sketch can satisfy "blocked" iff the
		// simulator does NOT deliver the traffic.
		if blockingSat != delivered {
			continue
		}
		t.Errorf("iter %d: model blocking-sat=%v and simulator delivered=%v for %s -> %s",
			iter, blockingSat, delivered, src, dst)
	}
}

// TestFrozenForwardingMatchesSimulator pins the best-route choice, the
// name-order tie-break included: on random leaf-spine, Zoo and line
// networks under OSPF, BGP and RIP, with every delta frozen, the
// encoding's forwarding (controlFwd of the normal environment) must be
// the simulator's next hop at every router, and the only forwarding
// the encoding admits: blocking it must leave no model. Leaf-spine
// fabrics give every leaf equal-cost routes through each spine.
// TestModelMatchesSimulator checks delivery only.
func TestFrozenForwardingMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for iter := 0; iter < 27; iter++ {
		var topo *topology.Topology
		switch iter % 3 {
		case 0:
			topo = topology.LeafSpine(2+rng.Intn(3), 2+rng.Intn(2), 1)
		case 1:
			topo = topology.Zoo(4+rng.Intn(5), int64(iter)*5+3)
		default:
			topo = topology.Line(3 + rng.Intn(3))
		}
		proto := []config.Proto{config.OSPF, config.BGP, config.RIP}[iter/3%3]
		net := configgen.Generate(topo, configgen.Options{
			Protocol:        proto,
			WithRoleFilters: rng.Intn(2) == 0,
			Seed:            int64(iter),
		})
		dst := topo.Subnets[rng.Intn(len(topo.Subnets))].Prefix
		hops := simulate.New(net, topo).NextHops(dst)

		e := New(net, topo, dst, DefaultOptions())
		v := e.environment("")
		for _, d := range e.Deltas() {
			if !d.Aux {
				e.Ctx.Clause(d.Bool.Neg())
			}
		}
		m := e.Ctx.Solve()
		if m == nil {
			t.Fatalf("iter %d (%s, %s, dst %s): frozen network unsat", iter, topo.Name, proto, dst)
		}
		// differ holds, per directed link, "its forwarding differs from
		// this model's".
		var differ []sat.Lit
		for _, u := range net.RouterNames() {
			for _, peer := range topo.Neighbors(u) {
				fwd := v.controlFwd[u+">"+peer]
				got, want := m.Bool(fwd), hops[u] == peer
				if got != want {
					t.Errorf("iter %d (%s, %s, dst %s): %s forwards to %s: model %v, simulator next hop %q",
						iter, topo.Name, proto, dst, u, peer, got, hops[u])
				}
				if got {
					differ = append(differ, fwd.Neg())
				} else {
					differ = append(differ, fwd)
				}
			}
		}
		e.Ctx.Clause(differ...)
		if e.Ctx.Solve() != nil {
			t.Errorf("iter %d (%s, %s, dst %s): the frozen network admits a second forwarding", iter, topo.Name, proto, dst)
		}
	}
}
