package main

import (
	"context"
	"fmt"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/objective"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/topology"
)

// parsed is one problem in the program's own types.
type parsed struct {
	net  *config.Network
	topo *topology.Topology
	ps   []policy.Policy
	objs []objective.Objective
}

// parseProblem runs the four parsers aed runs on its inputs.
func parseProblem(configs map[string]string, topoText, policies, objectives string) (parsed, error) {
	net, err := config.ParseNetwork(configs)
	if err != nil {
		return parsed{}, fmt.Errorf("configs: %w", err)
	}
	topo, err := topology.ParseText("bench", topoText)
	if err != nil {
		return parsed{}, fmt.Errorf("topology: %w", err)
	}
	ps, err := policy.Parse(policies)
	if err != nil {
		return parsed{}, fmt.Errorf("policies: %w", err)
	}
	objs, err := objective.Parse(objectives)
	if err != nil {
		return parsed{}, fmt.Errorf("objectives: %w", err)
	}
	return parsed{net: net, topo: topo, ps: ps, objs: objs}, nil
}

func (p problem) parse() (parsed, error) {
	return parseProblem(p.Configs, p.Topology, p.Policies, p.Objectives)
}

// expect is what the correctness oracle says an operation must report:
// the verdict and the optimal objective cost (violated soft weight).
type expect struct {
	Sat  bool `json:"sat"`
	Cost int  `json:"cost"`
}

// oracle computes the expected outcome with a cold, sequential one-shot
// synthesis: no session tier and no parallel scheduler is involved, so
// every fast path the timed operations take is checked against the
// plain pipeline.
func oracle(ctx context.Context, p parsed, opts core.Options) (expect, error) {
	opts.Sequential = true
	res, err := core.SynthesizeContext(ctx, p.net, p.topo, p.ps, opts)
	if err != nil {
		return expect{}, fmt.Errorf("oracle: %w", err)
	}
	want := expect{Sat: res.Unsat() == nil, Cost: res.ObjectiveViolations}
	if want.Sat && len(res.Violations) > 0 {
		return expect{}, fmt.Errorf("oracle: simulator finds %d violations: %v", len(res.Violations), res.Violations[0])
	}
	return want, nil
}

// problemOracle parses a one-shot problem and computes its expected
// outcome under its own objectives.
func problemOracle(ctx context.Context, p problem) (expect, error) {
	pp, err := p.parse()
	if err != nil {
		return expect{}, fmt.Errorf("%s: %w", p.Name, err)
	}
	want, err := oracle(ctx, pp, core.Options{Objectives: pp.objs})
	if err != nil {
		return expect{}, fmt.Errorf("%s: %w", p.Name, err)
	}
	return want, nil
}

// checkOutcome is the gate every timed operation passes through: same
// verdict and cost as the oracle, and no simulator violation.
func checkOutcome(want expect, sat bool, cost, violations int) error {
	if sat != want.Sat {
		return fmt.Errorf("verdict sat=%v, oracle says sat=%v", sat, want.Sat)
	}
	if sat && cost != want.Cost {
		return fmt.Errorf("objective cost %d, oracle says %d", cost, want.Cost)
	}
	if violations > 0 {
		return fmt.Errorf("simulator finds %d policy violations", violations)
	}
	return nil
}

// checkResult applies checkOutcome to a core result.
func checkResult(want expect, res *core.Result) error {
	return checkOutcome(want, res.Unsat() == nil, res.ObjectiveViolations, len(res.Violations))
}
