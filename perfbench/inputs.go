package main

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/aed-net/aed/internal/api"
	"github.com/aed-net/aed/internal/bench"
	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/objective"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/topology"
)

// This file generates every input the program sees, in the text formats
// the aed CLI and the aedd wire protocol accept. All randomness comes
// from the workload seed, so one seed always yields byte-identical
// inputs (see TestSameSeedSameInputs).

// tableTwoSets are the predefined objective sets of the paper's Table 2.
var tableTwoSets = []string{"preserve-templates", "min-devices", "min-pfs", "avoid-static", "min-lines"}

// problem is one one-shot synthesis problem as text.
type problem struct {
	Name       string            `json:"name"`
	Configs    map[string]string `json:"configs"`
	Topology   string            `json:"topology"`
	Policies   string            `json:"policies"`
	Objectives string            `json:"objectives"`
}

// objectiveText renders a Table 2 set in the objective language.
func objectiveText(set string) string {
	objs, err := objective.Named(set)
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	for _, o := range objs {
		b.WriteString(o.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// fleetProblems renders datacenter-fleet members first..last-1 as
// one-shot problems: each gets two blocking policies chosen by rng among
// its reachable pairs plus the base policies they leave intact. Member i
// uses Table 2 set (i+3) mod 5. The offset keeps preserve-templates, the
// costliest set, off the three largest members, so that one pass over
// the fleet stays a few seconds long; the assignment never depends on
// the seed, so per-pass cost is comparable across seeds.
func fleetProblems(rng *rand.Rand, first, last int) []problem {
	fleet := bench.DCFleet(last, 0)
	var out []problem
	for i := first; i < last; i++ {
		dc := fleet[i]
		blocked := bench.BlockingWorkload(dc.Net, dc.Topo, 2, rng.Int63())
		ps := append(bench.RemainingBase(dc.Base, blocked), blocked...)
		set := tableTwoSets[(i+3)%len(tableTwoSets)]
		out = append(out, problem{
			Name:       fmt.Sprintf("dc%02d", i),
			Configs:    config.PrintNetwork(dc.Net),
			Topology:   api.FormatTopology(dc.Topo),
			Policies:   policy.Format(ps),
			Objectives: objectiveText(set),
		})
	}
	return out
}

// zooSeed fixes the Zoo-30 WAN. Its synthesis time swings by 2x across
// generator seeds (the random graph and policy picks decide how many
// route filters must change), which would swamp the run-to-run spread of
// cold_fleet; so the workload seed varies the fleet and the pass order,
// not this network.
const zooSeed = 1

// zooProblem renders the Zoo-30 WAN with 8 base + 8 new reachability
// policies (the paper's §9.1 protocol) under min-devices.
func zooProblem() problem {
	zw := bench.ZooWorkload(30, 8, 8, zooSeed)
	ps := append(append([]policy.Policy{}, zw.Base...), zw.New...)
	return problem{
		Name:       "zoo30",
		Configs:    config.PrintNetwork(zw.Net),
		Topology:   api.FormatTopology(zw.Topo),
		Policies:   policy.Format(ps),
		Objectives: objectiveText("min-devices"),
	}
}

// fleetDraws is how many independent seeded blocking draws of the
// fleet the cold_fleet corpus holds. Solve time moves by up to 15% from
// one draw to another even between isomorphic instances (the solver's
// path depends on names and order), so a run alternates between draws
// to average that out; each draw adds one fleet pass to the oracle.
const fleetDraws = 2

// coldFleetInputs is the cold_fleet corpus: fleetDraws draws of fleet
// members dc00..dc11 (2 to 16 routers), followed by Zoo-30. With 13
// operations per pass, the median and the 74th percentile fall on one
// member (dc06 and dc09) whether a run makes 2, 3 or 4 passes, rather
// than between two members whose costs differ twofold.
func coldFleetInputs(seed int64) []problem {
	rng := rand.New(rand.NewSource(seed))
	var out []problem
	for d := 0; d < fleetDraws; d++ {
		for _, p := range fleetProblems(rng, 0, 12) {
			p.Name = fmt.Sprintf("%s/draw%d", p.Name, d)
			out = append(out, p)
		}
	}
	return append(out, zooProblem())
}

// fabric is a leaf-spine network prepared for session edits: spine0
// carries the rf_edit/rf_anchor filters of the resolve experiment, so
// flipping rf_edit's local preference between 110 and 120 is a pure
// volatile edit (tier 2), and a small set of extra blocking policies can
// be toggled on destinations other than 10.0.0.0/24 (tier 3).
type fabric struct {
	Leaves int `json:"leaves"`
	Spines int `json:"spines"`
	// Configs holds the network text with rf_edit at local preference
	// 110 (index 0) and 120 (index 1).
	Configs  [2]map[string]string `json:"configs"`
	Topology string               `json:"topology"`
	// Policies[0] is the base policy set, one blocking policy per leaf
	// subnet; Policies[k] adds extra blocking policy k.
	Policies []string `json:"policies"`
}

// extraBlocks is how many extra blocking policies the edit script can
// toggle. With two local-preference values the script visits
// 2*(extraBlocks+1) states, each of which the correctness oracle solves
// once from scratch during set-up.
const extraBlocks = 2

// editFilterDest is the destination rf_edit matches: the one a
// local-preference flip dirties.
var editFilterDest = prefix.MustParse("10.0.0.0/24")

// newFabric builds the fabric. It takes no seed: re-encoding one
// destination costs from 60 to 170 ms depending on which destination it
// is, and toggles dominate a script's time, so seeded picks would move
// ops_per_s by a third between seeds. The seed drives the scripts.
func newFabric(leaves, spines int) fabric {
	topo := topology.LeafSpine(leaves, spines, 1)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF, WithRoleFilters: true})
	spine := net.Routers["spine0"]
	spine.RouteFilters = append(spine.RouteFilters,
		&config.RouteFilter{Name: "rf_edit", Rules: []*config.RouteRule{
			{Permit: true, Prefix: editFilterDest, LocalPref: 110},
		}},
		&config.RouteFilter{Name: "rf_anchor", Rules: []*config.RouteRule{
			{Permit: true, Prefix: prefix.MustParse("10.200.0.0/24"), LocalPref: 110},
			{Permit: true, Prefix: prefix.MustParse("10.200.0.0/24"), LocalPref: 120},
		}},
	)
	spine.Process(config.OSPF).Adjacency("leaf0").InFilter = "rf_edit"
	alt := net.Clone()
	alt.Routers["spine0"].RouteFilter("rf_edit").Rules[0].LocalPref = 120

	var base strings.Builder
	for d := 0; d < leaves; d++ {
		fmt.Fprintf(&base, "block 10.%d.0.0/24 -> 10.%d.0.0/24\n", (d+1)%leaves, d)
	}
	f := fabric{
		Leaves: leaves, Spines: spines,
		Configs:  [2]map[string]string{config.PrintNetwork(net), config.PrintNetwork(alt)},
		Topology: api.FormatTopology(topo),
		Policies: []string{base.String()},
	}
	// Extra block k lands on destination k*leaves/3 from source d+2:
	// never leaf0's destination, so the flipped destination's policy
	// group never changes and a flip stays a tier-2 rebind, and never the
	// base policy's source d+1.
	for k := 1; k <= extraBlocks; k++ {
		d := k * leaves / (extraBlocks + 1)
		f.Policies = append(f.Policies,
			base.String()+fmt.Sprintf("block 10.%d.0.0/24 -> 10.%d.0.0/24\n", (d+2)%leaves, d))
	}
	return f
}

// sessionState is one point of an edit script's state space.
type sessionState struct {
	LP    int `json:"lp"`    // index into fabric.Configs
	Extra int `json:"extra"` // index into fabric.Policies
}

func (s sessionState) key() int { return s.LP*(extraBlocks+1) + s.Extra }

// allStates enumerates the state space in key order.
func allStates() []sessionState {
	var out []sessionState
	for lp := 0; lp < 2; lp++ {
		for e := 0; e <= extraBlocks; e++ {
			out = append(out, sessionState{LP: lp, Extra: e})
		}
	}
	return out
}

// stepKind classifies one script step by the session tier meant to
// serve it.
type stepKind int

const (
	stepResubmit stepKind = iota // unchanged inputs: tier 1, fingerprint cache
	stepFlip                     // rf_edit local-preference flip: tier 2, live rebind
	stepToggle                   // add or remove one extra block: tier 3, re-encode
	stepCold                     // one-shot cold solve (service_mix only)
)

// script deals seeded step kinds from shuffled decks of fixed
// composition, so every run's mix matches the deck exactly up to the
// last partial deck, whatever the seed.
type script struct {
	rng   *rand.Rand
	deck  []stepKind
	queue []stepKind
	state sessionState
}

// editDeck is edit_stream's mix: 5 flips, 2 toggles, 3 resubmits.
// Resubmits are the fastest steps and toggles the slowest, so the
// median falls inside the flips rather than on a boundary between two
// step kinds, where it would jump with every small shift in either.
var editDeck = []stepKind{stepFlip, stepFlip, stepFlip, stepFlip, stepFlip,
	stepToggle, stepToggle, stepResubmit, stepResubmit, stepResubmit}

// serviceDeck is service_mix's mix: the edit_stream steps with one in
// ten replaced by a one-shot cold solve, taken from the resubmits.
var serviceDeck = []stepKind{stepCold, stepFlip, stepFlip, stepFlip, stepFlip, stepFlip,
	stepToggle, stepToggle, stepResubmit, stepResubmit}

func newScript(seed int64, deck []stepKind) *script {
	return &script{rng: rand.New(rand.NewSource(seed)), deck: deck}
}

// next deals the next step kind and advances the session state it
// applies to.
func (s *script) next() (stepKind, sessionState) {
	if len(s.queue) == 0 {
		s.queue = append(s.queue, s.deck...)
		s.rng.Shuffle(len(s.queue), func(i, j int) { s.queue[i], s.queue[j] = s.queue[j], s.queue[i] })
	}
	k := s.queue[0]
	s.queue = s.queue[1:]
	switch k {
	case stepFlip:
		s.state.LP ^= 1
	case stepToggle:
		if s.state.Extra == 0 {
			s.state.Extra = 1 + s.rng.Intn(extraBlocks)
		} else {
			s.state.Extra = 0
		}
	}
	return k, s.state
}
