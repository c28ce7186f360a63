package encode

import (
	"github.com/aed-net/aed/internal/sat"
	"github.com/aed-net/aed/internal/smt"
)

// DeltaKind classifies a delta variable by what it does to the syntax
// tree, which is what objective restrictions key on (§7.2): NOMODIFY
// forbids any kind, ELIMINATE wants removals true and additions false.
type DeltaKind int

// Delta kinds.
const (
	// DeltaRemove removes an existing node when true.
	DeltaRemove DeltaKind = iota
	// DeltaAdd adds a potential node when true.
	DeltaAdd
	// DeltaModify changes an attribute of an existing node when true
	// (e.g. flipping a rule action or re-ranking a preference).
	DeltaModify
)

func (k DeltaKind) String() string {
	switch k {
	case DeltaRemove:
		return "rm"
	case DeltaAdd:
		return "add"
	case DeltaModify:
		return "mod"
	}
	return "?"
}

// Delta is one delta variable: a boolean whose truth means "this
// syntax-tree change happens", the node path it affects, and the edit
// to apply when it is true. AED keeps the variable ↔ tree-node mapping
// explicit (paper §5.1) so objectives can quantify change impact.
type Delta struct {
	// Bool is the delta's literal. An aux delta's is 0 until an
	// objective reads it (registry.lit).
	Bool sat.Lit
	Kind DeltaKind
	// Path is the syntax-tree path of the affected node. For adds it
	// is the path the node would occupy.
	Path string
	// Name is the paper-style delta name, e.g. "rm_B_rFilA_1".
	Name string
	// Edit materializes the change. For deltas with a value component
	// (LP re-ranks), ValueOf fills Edit fields from the model.
	Edit    Edit
	ValueOf func(m *smt.Model, e *Edit)
	// Aux marks value-choice companions of a structural delta (the
	// added rule's action, a preference's chosen rank). They carry no
	// edit of their own but participate in objective constraints so
	// EQUATE makes update *content* identical, not just update
	// presence.
	Aux bool
	// SlotSuffix disambiguates deltas sharing a path when matching
	// corresponding positions across EQUATE group members.
	SlotSuffix string
	// conj is the conjunction an aux delta stands for, until lit builds
	// its gate.
	conj []sat.Lit
}

// registry accumulates deltas during encoding, deduplicating by name:
// per-destination instances of the same structural delta (e.g. the
// same rm_adjacency) share one variable.
type registry struct {
	ctx    *smt.Context
	byName map[string]*Delta
	list   []*Delta
	// parkedAux counts the aux deltas park dropped from list.
	parkedAux int
}

func newRegistry(ctx *smt.Context) *registry {
	return &registry{ctx: ctx, byName: make(map[string]*Delta)}
}

// get returns the existing delta with this name, or creates it.
func (r *registry) get(name string, kind DeltaKind, path string, edit Edit) *Delta {
	if d, ok := r.byName[name]; ok {
		return d
	}
	d := &Delta{
		Bool: r.ctx.BoolVar(),
		Kind: kind,
		Path: path,
		Name: name,
		Edit: edit,
	}
	r.byName[name] = d
	r.list = append(r.list, d)
	return d
}

// all returns every registered delta in creation order (after park,
// every structural one).
func (r *registry) all() []*Delta { return r.list }

// count returns how many deltas were registered, the aux deltas park
// dropped included.
func (r *registry) count() int { return len(r.list) + r.parkedAux }

// park readies the registry for a live instance: it drops the name
// index, which only encoding reads, and the aux deltas, which only
// objectives read (Extract and PenalizeDeltas skip them, and a live
// instance has no objectives). The structural deltas move to an
// exact-size list, so nothing reaches the dropped ones: not their
// names, nor the literals of their conjunctions.
func (r *registry) park() {
	r.byName = nil
	n := 0
	for _, d := range r.list {
		if !d.Aux {
			n++
		}
	}
	if n == len(r.list) {
		return
	}
	kept := make([]*Delta, 0, n)
	for _, d := range r.list {
		if !d.Aux {
			kept = append(kept, d)
		}
	}
	r.parkedAux += len(r.list) - n
	r.list = kept
}

// getAux registers a value-choice companion delta standing for the
// conjunction of conj. Only objectives read aux deltas, so its gate is
// built when one first does (lit), and an instance without objectives
// builds none.
func (r *registry) getAux(name string, kind DeltaKind, path, slotSuffix string, conj ...sat.Lit) *Delta {
	if d, ok := r.byName[name]; ok {
		return d
	}
	d := &Delta{Kind: kind, Path: path, Name: name, Aux: true, SlotSuffix: slotSuffix, conj: conj}
	r.byName[name] = d
	r.list = append(r.list, d)
	return d
}

// lit returns d's literal, building an aux delta's gate on first use.
func (r *registry) lit(d *Delta) sat.Lit {
	if d.Bool == 0 {
		d.Bool, d.conj = r.ctx.And(d.conj...), nil
	}
	return d.Bool
}

// Extract returns the edits for all deltas set true in the model.
func Extract(m *smt.Model, deltas []*Delta) []Edit {
	var out []Edit
	for _, d := range deltas {
		if d.Aux || !m.Bool(d.Bool) {
			continue
		}
		e := d.Edit
		if d.ValueOf != nil {
			d.ValueOf(m, &e)
		}
		out = append(out, e)
	}
	return out
}
