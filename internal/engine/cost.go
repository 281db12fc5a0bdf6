package engine

import (
	"math"

	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

// PlanCost returns a cheap static cost estimate for evaluating p over
// db, in estimated intermediate-row units, computed without touching
// any tuples so it can rank a query's minimal plans before evaluating
// any of them. The anytime evaluator uses it to order plans cheapest
// first: every minimal plan's score is a valid upper bound, so starting
// with the cheapest one yields a usable interval as early as possible.
//
// The estimate is computed once per distinct node, children first
// (plan.Distinct): scans cost the relation size discounted per constant
// binding and pushed-down predicate; joins take the System R form,
// dividing the size product by the largest input size once per shared
// variable; projections keep their input size (duplicate elimination
// only shrinks it); min nodes cost the sum of their branches. A node's
// cost adds its children's, each subplan's at its first parent only, so
// a view of a merged plan costs once, as it runs once, and on a tree
// every sum nests as the tree does (TestPlanCostPinned pins the bits
// anytime orders its plans by). Only relative order matters — the
// absolute numbers are not row counts.
func PlanCost(db *DB, p plan.Node) float64 {
	type est struct {
		cost, rows float64
		vars       []cq.Var
		counted    bool // a parent's cost holds this one's
	}
	uses := plan.Distinct(p)
	ests := make([]est, len(uses))
	at := make(map[plan.ID]int, len(uses))
	kid := func(c plan.Node) (cost, rows float64, vars []cq.Var) {
		e := &ests[at[c.ID()]]
		if !e.counted {
			e.counted, cost = true, e.cost
		}
		return cost, e.rows, e.vars
	}
	for i, u := range uses {
		at[u.Node.ID()] = i
		e := &ests[i]
		switch t := u.Node.(type) {
		case *plan.Scan:
			n := 1.0
			if rel := db.Relation(t.Atom.Rel); rel != nil {
				n = float64(rel.Len())
			}
			seen := cq.VarSet{}
			for _, a := range t.Atom.Args {
				if !a.IsVar() {
					n *= 0.1 // constant binding
				} else if seen.Has(a.Var) {
					n *= 0.1 // repeated variable
				} else {
					seen.Add(a.Var)
				}
			}
			n *= math.Pow(0.5, float64(len(t.Preds)))
			n = max(n, 1)
			e.cost, e.rows, e.vars = n, n, t.Head()
		case *plan.Project:
			c, r, _ := kid(t.Child)
			if _, ok := t.Child.(*plan.Join); ok {
				// The fused streaming Project(Join) path (stream.go) never
				// materializes the join output: probe matches stream through
				// morsel-sized grouping windows. Charge the grouping pass but
				// not a second full materialization of the join output.
				e.cost, e.rows, e.vars = c+0.25*r, r, t.OnTo
			} else {
				e.cost, e.rows, e.vars = c+r, r, t.OnTo
			}
		case *plan.Join:
			c, r, maxIn := 0.0, 1.0, 1.0
			have := cq.VarSet{}
			for _, s := range t.Subs {
				sc, sr, sv := kid(s)
				c += sc
				maxIn = max(maxIn, sr)
				r *= sr
				for _, v := range sv {
					if have.Has(v) {
						r = max(r/maxIn, 1) // one System R division per shared variable
					} else {
						have.Add(v)
						e.vars = append(e.vars, v)
					}
				}
			}
			e.cost, e.rows = c+r, r
		case *plan.Min:
			for _, s := range t.Subs {
				sc, sr, sv := kid(s)
				e.cost += sc
				e.rows = max(e.rows, sr)
				e.vars = sv
			}
		default:
			panic("engine: unknown plan node")
		}
	}
	return ests[len(ests)-1].cost
}
