package encode

import (
	"sort"
	"strings"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/objective"
	"github.com/aed-net/aed/internal/sat"
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
		if l, ok := e.instanceLit(inst); ok {
			e.Ctx.AssertSoft(l, inst.Weight, inst.Label)
		}
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
		e.Ctx.AssertSoft(d.Bool.Neg(), weight, "min-lines:"+d.Name)
	}
}

// instanceLit returns the literal of an instance's restriction, and
// false when the instance selects no delta.
func (e *Encoder) instanceLit(inst objective.Instance) (sat.Lit, bool) {
	rootPaths := make([]string, 0, len(inst.Roots))
	for _, n := range inst.Roots {
		rootPaths = append(rootPaths, n.Path())
	}
	if inst.Restriction == objective.Equate {
		return e.equateLit(rootPaths), true
	}
	ds := e.deltasUnder(rootPaths)
	if len(ds) == 0 {
		return 0, false
	}
	lits := make([]sat.Lit, len(ds))
	for i, d := range ds {
		lits[i] = e.reg.lit(d)
	}
	switch inst.Restriction {
	case objective.NoModify:
		return e.Ctx.Or(lits...).Neg(), true
	case objective.Modify:
		return e.Ctx.Or(lits...), true
	case objective.Eliminate:
		for i, d := range ds {
			// Removals wanted; additions not, and modifying an
			// eliminated node is irrelevant, so prefer not to bother.
			if d.Kind != DeltaRemove {
				lits[i] = lits[i].Neg()
			}
		}
		return e.Ctx.And(lits...), true
	}
	return 0, false
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

// equateLit builds the similarity constraint across subtrees: for
// every relative path that carries a delta in any member subtree, all
// members' deltas must agree; a member lacking the delta contributes
// "false" (no change), so the others must be false too.
func (e *Encoder) equateLit(roots []string) sat.Lit {
	if len(roots) < 2 {
		return e.Ctx.True() // nothing to equate: trivially satisfied
	}
	// Group member deltas by relative path. Multiple deltas can share
	// (root, rel, kind) — e.g. an add rule per traffic class; their
	// disjunction is the member's value.
	slots := make(map[string]map[string][]sat.Lit)
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
				s = make(map[string][]sat.Lit)
				slots[key] = s
			}
			s[root] = append(s[root], e.reg.lit(d))
			break
		}
	}
	keys := make([]string, 0, len(slots))
	for k := range slots {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []sat.Lit
	for _, k := range keys {
		// Chain equalities between consecutive members; a missing
		// member is Or() = false.
		var prev sat.Lit
		for i, root := range roots {
			cur := e.Ctx.Or(slots[k][root]...)
			if i > 0 {
				parts = append(parts, e.Ctx.Or(prev.Neg(), cur), e.Ctx.Or(prev, cur.Neg()))
			}
			prev = cur
		}
	}
	return e.Ctx.And(parts...)
}
