// Package viz renders the paper's illustrations as Graphviz DOT: the
// partial dissociation order of a query (Figure 1a) with safe
// dissociations highlighted and minimal safe ones emphasized, and the
// minimal plans as operator graphs (Figure 1b).
package viz

import (
	"fmt"
	"strings"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

// LatticeDOT renders the dissociation lattice of q (Figure 1a): one node
// per dissociation, edges between immediate neighbors (differing by one
// variable), safe dissociations filled green, minimal safe dissociations
// double-peripheried. Exponential in the dissociation slots; intended
// for small queries.
func LatticeDOT(q *cq.Query) string {
	dissociations := core.Dissociations(q)
	minimal := map[string]bool{}
	for _, d := range core.MinimalSafeDissociations(q) {
		minimal[d.Key()] = true
	}
	id := func(d plan.Dissociation) string {
		return fmt.Sprintf("%q", "n"+d.Key())
	}
	var b strings.Builder
	b.WriteString("digraph lattice {\n")
	b.WriteString("  rankdir=BT;\n")
	fmt.Fprintf(&b, "  label=%q;\n", "dissociation lattice of "+q.String())
	b.WriteString("  node [shape=box, fontname=\"Helvetica\"];\n")
	for _, d := range dissociations {
		label := d.Key()
		if d.IsEmpty() {
			label = "∆⊥ (original query)"
		}
		attrs := []string{fmt.Sprintf("label=%q", label)}
		if d.IsSafeFor(q) {
			attrs = append(attrs, `style=filled`, `fillcolor="#c8e6c9"`)
		}
		if minimal[d.Key()] {
			attrs = append(attrs, `peripheries=2`, `fillcolor="#81c784"`)
		}
		fmt.Fprintf(&b, "  %s [%s];\n", id(d), strings.Join(attrs, ", "))
	}
	// Cover edges: ∆ -> ∆′ when ∆ ⪯ ∆′ and they differ in exactly one
	// dissociated variable.
	size := func(d plan.Dissociation) int {
		n := 0
		for _, s := range d.Extra {
			n += s.Len()
		}
		return n
	}
	for _, lo := range dissociations {
		for _, hi := range dissociations {
			if size(hi) == size(lo)+1 && lo.LE(hi) {
				fmt.Fprintf(&b, "  %s -> %s;\n", id(lo), id(hi))
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// MinimalPlansDOT renders all minimal plans of q side by side with
// their dissociations (Figure 1b): one DOT node per distinct node of
// each plan, labelled by plan.Label.
func MinimalPlansDOT(q *cq.Query, sch *core.Schema) string {
	plans := core.MinimalPlans(q, sch)
	var b strings.Builder
	b.WriteString("digraph plans {\n")
	fmt.Fprintf(&b, "  label=%q;\n", "minimal plans of "+q.String())
	b.WriteString("  node [fontname=\"Helvetica\"];\n")
	n := 0
	for pi, p := range plans {
		d := plan.DeltaOf(q, p)
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n", pi)
		fmt.Fprintf(&b, "    label=%q;\n", fmt.Sprintf("plan %d: ∆ = %s", pi+1, d))
		ids := map[plan.ID]string{}
		for _, u := range plan.Distinct(p) {
			id := fmt.Sprintf("n%d", n)
			n++
			ids[u.Node.ID()] = id
			shape := "ellipse"
			switch u.Node.(type) {
			case *plan.Scan:
				shape = "box"
			case *plan.Min:
				shape = "diamond"
			}
			fmt.Fprintf(&b, "    %s [label=%q, shape=%s];\n", id, plan.Label(u.Node), shape)
			for _, c := range u.Node.Children() {
				fmt.Fprintf(&b, "    %s -> %s;\n", id, ids[c.ID()])
			}
		}
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// IncidenceMatrix renders the paper's "augmented incidence matrix"
// notation (Figures 1a and 3): one row per relation, one column per
// existential variable; "o" marks a variable the relation contains,
// "*" a variable it is dissociated on, "." absence. Deterministic
// relations (per the schema) are marked with a d-exponent, and their
// dissociated variables rendered "o" instead of "*" — the paper's
// convention that dissociating a deterministic relation is free.
func IncidenceMatrix(q *cq.Query, d plan.Dissociation, det map[string]bool) string {
	evars := q.EVars()
	var b strings.Builder
	// Header.
	width := 0
	for _, a := range q.Atoms {
		name := a.Rel
		if det[a.Rel] {
			name += "^d"
		}
		if len(name) > width {
			width = len(name)
		}
	}
	fmt.Fprintf(&b, "%-*s", width+2, "")
	for _, v := range evars {
		fmt.Fprintf(&b, "%-3s", string(v))
	}
	b.WriteString("\n")
	for _, a := range q.Atoms {
		name := a.Rel
		if det[a.Rel] {
			name += "^d"
		}
		fmt.Fprintf(&b, "%-*s", width+2, name)
		has := cq.NewVarSet(a.Vars()...)
		extra := d.ExtraOf(a.Rel)
		for _, v := range evars {
			switch {
			case has.Has(v):
				b.WriteString("o  ")
			case extra.Has(v) && det[a.Rel]:
				b.WriteString("o  ") // free dissociation of a DR
			case extra.Has(v):
				b.WriteString("*  ")
			default:
				b.WriteString(".  ")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// LatticeMatrices renders every dissociation of q as an incidence
// matrix with its safety status — the textual form of Figure 1a /
// Figure 3. Exponential; small queries only.
func LatticeMatrices(q *cq.Query, det map[string]bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "dissociation lattice of %s\n\n", q)
	for i, d := range core.Dissociations(q) {
		status := "unsafe"
		if d.IsSafeFor(q) {
			status = "safe"
		}
		fmt.Fprintf(&b, "∆%d = %s (%s)\n%s\n", i, d, status, IncidenceMatrix(q, d, det))
	}
	return b.String()
}
