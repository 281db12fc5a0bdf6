package plan

import (
	"fmt"
	"sort"
	"strings"

	"lapushdb/internal/cq"
)

// Dissociation is a query dissociation ∆ = (y1, ..., ym) (Definition 10):
// for every relation symbol of the query, the set of extra variables the
// relation is dissociated on. Relations absent from the map have yi = ∅.
type Dissociation struct {
	Extra map[string]cq.VarSet
}

// NewDissociation returns the empty dissociation ∆⊥.
func NewDissociation() Dissociation {
	return Dissociation{Extra: map[string]cq.VarSet{}}
}

// ExtraOf returns yi for the given relation (possibly empty, never nil).
func (d Dissociation) ExtraOf(rel string) cq.VarSet {
	if s, ok := d.Extra[rel]; ok {
		return s
	}
	return cq.VarSet{}
}

// Add dissociates relation rel on variable v.
func (d Dissociation) Add(rel string, v cq.Var) {
	s, ok := d.Extra[rel]
	if !ok {
		s = cq.VarSet{}
		d.Extra[rel] = s
	}
	s.Add(v)
}

// IsEmpty reports whether this is the empty dissociation ∆⊥ (no relation
// dissociated on any variable).
func (d Dissociation) IsEmpty() bool {
	for _, s := range d.Extra {
		if s.Len() > 0 {
			return false
		}
	}
	return true
}

// LE reports ∆ ⪯ ∆′ in the partial dissociation order (Definition 15):
// yi ⊆ y′i for every relation.
func (d Dissociation) LE(o Dissociation) bool {
	for rel, s := range d.Extra {
		if !s.SubsetOf(o.ExtraOf(rel)) {
			return false
		}
	}
	return true
}

// LEProb reports ∆ ⪯p ∆′ in the probabilistic dissociation preorder of
// Section 3.3.1: yi ⊆ y′i is required only for probabilistic relations.
// isProb reports whether a relation is probabilistic.
func (d Dissociation) LEProb(o Dissociation, isProb func(rel string) bool) bool {
	for rel, s := range d.Extra {
		if isProb(rel) && !s.SubsetOf(o.ExtraOf(rel)) {
			return false
		}
	}
	return true
}

// LEProbFD reports ∆ ⪯p′ ∆′, the preorder refined by functional
// dependencies (Section 3.3.2): extra variables inside the FD closure of a
// relation's own variables are ignored, because dissociating on them does
// not change the probability (Lemma 25). closure(rel) must return the
// closure x⁺ of the atom's variables under the schema FDs.
func (d Dissociation) LEProbFD(o Dissociation, isProb func(rel string) bool, closure func(rel string) cq.VarSet) bool {
	for rel, s := range d.Extra {
		if !isProb(rel) {
			continue
		}
		cl := closure(rel)
		if !s.Minus(cl).SubsetOf(o.ExtraOf(rel).Minus(cl)) {
			return false
		}
	}
	return true
}

// Equal reports whether the two dissociations have exactly the same extra
// variables.
func (d Dissociation) Equal(o Dissociation) bool { return d.LE(o) && o.LE(d) }

// Key returns a canonical string form, usable as a map key.
func (d Dissociation) Key() string {
	rels := make([]string, 0, len(d.Extra))
	for rel, s := range d.Extra {
		if s.Len() > 0 {
			rels = append(rels, rel)
		}
	}
	sort.Strings(rels)
	parts := make([]string, len(rels))
	for i, rel := range rels {
		parts[i] = rel + "^" + d.Extra[rel].String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// String renders the dissociation like "{R^{y}, T^{x}}".
func (d Dissociation) String() string { return d.Key() }

// Apply returns the dissociated query q∆: every atom Ri(xi) becomes
// Ri(xi, yi) with the extra variables appended in sorted order. The
// relation symbols are kept, so analyses (hierarchy, components, cuts)
// work on the result directly.
func (d Dissociation) Apply(q *cq.Query) *cq.Query {
	out := q.Clone()
	for i := range out.Atoms {
		a := &out.Atoms[i]
		have := cq.NewVarSet(a.Vars()...)
		for _, v := range d.ExtraOf(a.Rel).Sorted() {
			if !have.Has(v) {
				a.Args = append(a.Args, cq.V(string(v)))
			}
		}
	}
	return out
}

// IsSafeFor reports whether ∆ is a safe dissociation of q, i.e. whether
// the dissociated query q∆ is hierarchical (Definition 13, Theorem 2).
func (d Dissociation) IsSafeFor(q *cq.Query) bool {
	return d.Apply(q).IsHierarchical()
}

// DeltaOf computes the dissociation ∆P corresponding to a plan P of query
// q (Section 3.2): at every join ⋈[P1, ..., Pk] with join variables
// JVar = ∪j HVar(Pj), every relation under Pj is dissociated on
// JVar − HVar(Pj). Head variables of q act as per-answer constants and
// contribute nothing.
func DeltaOf(q *cq.Query, p Node) Dissociation {
	d := NewDissociation()
	evars := cq.NewVarSet(q.EVars()...)
	var walk func(Node)
	walk = func(n Node) {
		if j, ok := n.(*Join); ok {
			jvar := j.HeadSet()
			for _, c := range j.Subs {
				miss := jvar.Minus(c.HeadSet()).Intersect(evars)
				if miss.Len() > 0 {
					for _, rel := range Relations(c) {
						for v := range miss {
							d.Add(rel, v)
						}
					}
				}
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p)
	return d
}

// PlanOf computes the plan P∆ corresponding to a safe dissociation ∆ of q:
// the unique safe plan of the (hierarchical) dissociated query q∆, with
// the dissociated variables stripped back out so that the result is a
// regular plan over q's original atoms (Section 3.2). It returns an error
// if ∆ is not safe for q.
func PlanOf(q *cq.Query, d Dissociation) (Node, error) {
	dq := d.Apply(q)
	if !dq.IsHierarchical() {
		return nil, fmt.Errorf("plan: dissociation %s is not safe for %s", d, q)
	}
	safe := safePlan(dq)
	return Strip(q, safe), nil
}

// safePlan builds the unique safe plan of a hierarchical query following
// the recursion of Lemma 3: single atoms become scans; disconnected
// queries become joins of their components' plans; otherwise the separator
// variables are projected away on top.
func safePlan(q *cq.Query) Node {
	if len(q.Atoms) == 1 {
		a := q.Atoms[0]
		return NewProject(q.Head, NewScan(a, q.PredsOnAtom(a)))
	}
	comps := q.Components()
	if len(comps) > 1 {
		subs := make([]Node, len(comps))
		for i, c := range comps {
			subs[i] = safePlan(c)
		}
		return NewProject(q.Head, NewJoin(subs...))
	}
	sep := q.SeparatorVars()
	if sep.Len() == 0 {
		panic(fmt.Sprintf("plan: query %s is connected, multi-atom, and has no separator — not hierarchical", q))
	}
	inner := q.WithHead(append(append([]cq.Var(nil), q.Head...), sep.Sorted()...))
	return NewProject(q.Head, safePlan(inner))
}

// Strip rewrites a plan over dissociated atoms of q back into a plan over
// q's original atoms: every scan's atom is replaced by the original atom
// with the same relation symbol, and every projection keeps only the
// variables still available below it. Trivial projections collapse away.
// Each distinct input node is stripped once, so a subplan the input
// shares stays one node in the result: a DAG stays a DAG.
func Strip(q *cq.Query, n Node) Node {
	memo := map[Node]Node{}
	var strip func(Node) Node
	strip = func(n Node) Node {
		if s, ok := memo[n]; ok {
			return s
		}
		var out Node
		switch t := n.(type) {
		case *Scan:
			orig := q.Atom(t.Atom.Rel)
			if orig == nil {
				panic(fmt.Sprintf("plan: stripped plan mentions unknown relation %s", t.Atom.Rel))
			}
			out = NewScan(*orig, q.PredsOnAtom(*orig))
		case *Project:
			child := strip(t.Child)
			below := child.HeadSet()
			var onto []cq.Var
			for _, v := range t.OnTo {
				if below.Has(v) {
					onto = append(onto, v)
				}
			}
			out = NewProject(onto, child)
		case *Join:
			subs := make([]Node, len(t.Subs))
			for i, c := range t.Subs {
				subs[i] = strip(c)
			}
			out = NewJoin(subs...)
		case *Min:
			subs := make([]Node, len(t.Subs))
			for i, c := range t.Subs {
				subs[i] = strip(c)
			}
			out = NewMin(subs...)
		default:
			panic("plan: unknown node type")
		}
		memo[n] = out
		return out
	}
	return strip(n)
}
