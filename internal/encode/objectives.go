package encode

import (
	"sort"
	"strings"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/objective"
	"github.com/aed-net/aed/internal/smt"
)

// AugmentTree inserts the potential (not-yet-existing) syntax-tree
// nodes referenced by the deltas into a tree built from the current
// configurations, so that XPath objectives can select potential
// constructs as well (they carry virtual="true"). Call it on a fresh
// tree before instantiating objectives.
func AugmentTree(tree *config.Node, deltas []*Delta) {
	for _, d := range deltas {
		if d.Kind == DeltaAdd {
			tree.EnsurePath(d.Path)
		}
	}
}

// AddObjectives translates desugared management-objective instances
// into weighted soft constraints over the instance's delta variables
// (paper §7.2). Each instance constrains the deltas whose syntax-tree
// path falls under one of its selected subtree roots:
//
//	NOMODIFY  — negation of the disjunction of the deltas
//	MODIFY    — the disjunction of the deltas
//	ELIMINATE — conjunction of remove-deltas and negated add-deltas
//	EQUATE    — deltas at the same relative position in each subtree
//	            must be equal (and absent counterparts unchanged)
func (e *Encoder) AddObjectives(instances []objective.Instance) {
	for _, inst := range instances {
		f := e.instanceFormula(inst)
		if f == nil {
			continue
		}
		e.Ctx.AssertSoft(f, inst.Weight, inst.Label)
	}
}

// PenalizeDeltas adds a unit-weight soft constraint against every
// (non-auxiliary) delta variable — the exact min-lines objective: each
// changed configuration line costs one violation.
func (e *Encoder) PenalizeDeltas(weight int) {
	for _, d := range e.reg.all() {
		if d.Aux {
			continue
		}
		e.Ctx.AssertSoft(smt.Not(d.Bool), weight, "min-lines:"+d.Name)
	}
}

func (e *Encoder) instanceFormula(inst objective.Instance) *smt.Formula {
	rootPaths := make([]string, 0, len(inst.Roots))
	for _, n := range inst.Roots {
		rootPaths = append(rootPaths, n.Path())
	}
	switch inst.Restriction {
	case objective.NoModify:
		ds := e.deltasUnder(rootPaths)
		if len(ds) == 0 {
			return nil
		}
		var vars []*smt.Formula
		for _, d := range ds {
			vars = append(vars, d.Bool)
		}
		return smt.Not(smt.Or(vars...))
	case objective.Modify:
		ds := e.deltasUnder(rootPaths)
		if len(ds) == 0 {
			return nil
		}
		var vars []*smt.Formula
		for _, d := range ds {
			vars = append(vars, d.Bool)
		}
		return smt.Or(vars...)
	case objective.Eliminate:
		ds := e.deltasUnder(rootPaths)
		if len(ds) == 0 {
			return nil
		}
		var parts []*smt.Formula
		for _, d := range ds {
			switch d.Kind {
			case DeltaAdd:
				parts = append(parts, smt.Not(d.Bool))
			case DeltaRemove:
				parts = append(parts, d.Bool)
			case DeltaModify:
				// Modifying an eliminated node is irrelevant; prefer
				// not to bother.
				parts = append(parts, smt.Not(d.Bool))
			}
		}
		return smt.And(parts...)
	case objective.Equate:
		return e.equateFormula(rootPaths)
	}
	return nil
}

// deltasUnder returns the deltas whose path is any root or below one.
func (e *Encoder) deltasUnder(roots []string) []*Delta {
	var out []*Delta
	for _, d := range e.reg.all() {
		for _, root := range roots {
			if pathUnder(d.Path, root) {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

// pathUnder reports whether path is root or a descendant of it: root
// followed by a "/" segment boundary, so "r1/…" is not under "r10".
func pathUnder(path, root string) bool {
	return strings.HasPrefix(path, root) && (len(path) == len(root) || path[len(root)] == '/')
}

// equateFormula builds the similarity constraint across subtrees: for
// every relative path that carries a delta in any member subtree, all
// members' deltas must agree; a member lacking the delta contributes
// "false" (no change), so the others must be false too.
func (e *Encoder) equateFormula(roots []string) *smt.Formula {
	if len(roots) < 2 {
		return smt.TrueF // nothing to equate: trivially satisfied
	}
	// Group member deltas by relative path.
	type slot struct {
		byRoot map[string]*smt.Formula
	}
	slots := make(map[string]*slot)
	for _, d := range e.reg.all() {
		for _, root := range roots {
			var rel string
			switch {
			case d.Path == root:
				rel = "."
			case strings.HasPrefix(d.Path, root+"/"):
				rel = d.Path[len(root)+1:]
			default:
				continue
			}
			key := rel + "\x00" + d.Kind.String() + "\x00" + d.SlotSuffix
			s := slots[key]
			if s == nil {
				s = &slot{byRoot: make(map[string]*smt.Formula)}
				slots[key] = s
			}
			// Multiple deltas can share (root, rel, kind) — e.g. an
			// add rule per traffic class; OR them together.
			s.byRoot[root] = smt.Or(s.byRoot[root], d.Bool)
			break
		}
	}
	keys := make([]string, 0, len(slots))
	for k := range slots {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []*smt.Formula
	for _, k := range keys {
		s := slots[k]
		// Build pairwise equalities; missing members are "false".
		var prev *smt.Formula
		first := true
		for _, root := range roots {
			cur := s.byRoot[root]
			if cur == nil {
				cur = smt.FalseF
			}
			if !first {
				parts = append(parts, smt.Iff(prev, cur))
			}
			prev = cur
			first = false
		}
	}
	if len(parts) == 0 {
		return smt.TrueF
	}
	return smt.And(parts...)
}
