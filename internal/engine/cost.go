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
// The estimate recurses over the plan: scans cost the relation size
// discounted per constant binding and pushed-down predicate; joins take
// the System R form, dividing the size product by the largest input
// size once per shared variable; projections keep their input size
// (duplicate elimination only shrinks it); min nodes cost the sum of
// their branches. Only relative order matters — the absolute numbers
// are not row counts.
func PlanCost(db *DB, p plan.Node) float64 {
	cost, _, _ := planCost(db, p)
	return cost
}

// planCost returns (total cost, estimated output rows, output vars).
func planCost(db *DB, p plan.Node) (cost, rows float64, vars []cq.Var) {
	switch t := p.(type) {
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
		if n < 1 {
			n = 1
		}
		return n, n, t.Head()
	case *plan.Project:
		c, r, _ := planCost(db, t.Child)
		if _, ok := t.Child.(*plan.Join); ok {
			// The fused streaming Project(Join) path (stream.go) never
			// materializes the join output: probe matches stream through
			// morsel-sized grouping windows. Charge the grouping pass but
			// not a second full materialization of the join output.
			return c + 0.25*r, r, t.OnTo
		}
		return c + r, r, t.OnTo
	case *plan.Join:
		c := 0.0
		r := 1.0
		have := cq.VarSet{}
		maxIn := 1.0
		for _, s := range t.Subs {
			sc, sr, sv := planCost(db, s)
			c += sc
			if sr > maxIn {
				maxIn = sr
			}
			r *= sr
			for _, v := range sv {
				if have.Has(v) {
					r /= maxIn // one System R division per shared variable
					if r < 1 {
						r = 1
					}
				} else {
					have.Add(v)
					vars = append(vars, v)
				}
			}
		}
		return c + r, r, vars
	case *plan.Min:
		c := 0.0
		r := 0.0
		for _, s := range t.Subs {
			sc, sr, sv := planCost(db, s)
			c += sc
			if sr > r {
				r = sr
			}
			vars = sv
		}
		return c, r, vars
	default:
		panic("engine: unknown plan node")
	}
}
