package encode

import (
	"fmt"

	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/sat"
)

// ExplainConflict determines which subset of the group's policies is
// mutually unimplementable on this network (the paper's §11 "SMT
// output for special cases" reports only unsat; this extension names
// the culprits). It encodes each policy's constraints behind a guard
// assumption, extracts an unsat core over the guards, and minimizes it
// by deletion. It returns nil when the policies are jointly
// satisfiable.
//
// Call on a fresh Encoder (it adds guarded constraints).
func (e *Encoder) ExplainConflict(ps []policy.Policy) ([]policy.Policy, error) {
	guards := make([]sat.Lit, len(ps))
	for i, p := range ps {
		guards[i] = e.Ctx.BoolVar()
		if err := e.encodeGuarded(p, guards[i:i+1]); err != nil {
			return nil, err
		}
	}
	core, satisfiable := e.Ctx.UnsatCore(guards)
	if satisfiable {
		return nil, nil
	}
	core = e.Ctx.MinimizeCore(guards, core)
	out := make([]policy.Policy, 0, len(core))
	for _, idx := range core {
		out = append(out, ps[idx])
	}
	return out, nil
}

// encodeGuarded adds one policy's constraints under the guard, a
// conjunction of literals (nil for none): each is one clause.
func (e *Encoder) encodeGuarded(p policy.Policy, guard []sat.Lit) error {
	if e.dstRouter == "" {
		return fmt.Errorf("encode: destination %s is not a known subnet", e.dst)
	}
	if !p.Dst.Equal(e.dst) {
		return fmt.Errorf("encode: policy %s does not target group destination %s", p, e.dst)
	}
	srcRouter := e.topo.RouterOfSubnet(p.Src)
	if srcRouter == "" {
		return fmt.Errorf("encode: source %s is not a known subnet", p.Src)
	}
	normal := e.environment("")
	assert := func(l sat.Lit) { e.Ctx.ClauseUnder(guard, l) }
	switch p.Kind {
	case policy.Reachability:
		assert(e.reachable(normal, p.Src, srcRouter))
	case policy.Blocking, policy.Isolation:
		assert(e.reachable(normal, p.Src, srcRouter).Neg())
	case policy.Waypoint:
		assert(e.reachable(normal, p.Src, srcRouter))
		assert(e.visits(normal, p.Src, srcRouter, p.Via))
	case policy.PathPreference:
		assert(e.reachable(normal, p.Src, srcRouter))
		assert(e.visits(normal, p.Src, srcRouter, p.Via))
		failEnv := e.environment(p.Via)
		assert(e.reachable(failEnv, p.Src, srcRouter))
		assert(e.visits(failEnv, p.Src, srcRouter, p.Avoid))
	case policy.PathLength:
		assert(e.reachable(normal, p.Src, srcRouter))
		assert(e.hopBound(normal, p.Src, srcRouter, p.MaxLen))
	}
	return nil
}
