package lapushdb

import (
	"context"
	"fmt"
	"sort"

	"lapushdb/internal/engine"
	"lapushdb/internal/exact"
)

// TupleInfluence is one input tuple's contribution to an answer:
// the Banzhaf-style criticality P(answer | tuple present) −
// P(answer | tuple absent). For monotone queries it is non-negative,
// and ∂P/∂p(tuple) equals exactly this difference.
type TupleInfluence struct {
	// Tuple renders the input tuple, e.g. "Likes(ann, heat)".
	Tuple string
	// Influence is P(q | t=1) − P(q | t=0) ∈ [0, 1].
	Influence float64
}

// AnswerInfluence explains one answer: its exact probability and the
// most influential input tuples.
type AnswerInfluence struct {
	Values      []string
	Probability float64
	Tuples      []TupleInfluence
}

// Influence computes, for every answer, the exact probability and the
// influence of each contributing input tuple, keeping the topPerAnswer
// most influential (0 keeps all). Each answer's lineage is compiled
// once into an arithmetic circuit; influences are two linear-time
// circuit evaluations per tuple. Exact compilation must be feasible
// within DefaultExactBudget nodes per answer. The lineage evaluation
// and the per-answer loop poll ctx.
//
// Influence is the sensitivity ∂P/∂p(t): it identifies the uncertain
// facts most worth verifying or cleaning to firm up an answer — the
// data-cleaning use the paper's knowledge-base motivation implies.
func (d *DB) Influence(ctx context.Context, query string, topPerAnswer int) ([]AnswerInfluence, error) {
	q, err := parseChecked(d, query)
	if err != nil {
		return nil, err
	}
	var lin *engine.Lineage
	if err := d.evaluate(ctx, q, &Options{}, func(e *engine.Evaluator) { lin = e.Lineage(q) }); err != nil {
		return nil, err
	}
	labels := d.db.VarLabels()
	probs := d.db.VarProbs()
	out := make([]AnswerInfluence, 0, lin.Len())
	scratch := append([]float64(nil), probs...)
	for i := 0; i < lin.Len(); i++ {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		clauses := lin.Clauses(i)
		circ, err := exact.Compile(clauses, DefaultExactBudget)
		if err != nil {
			return nil, fmt.Errorf("lapushdb: influence compilation infeasible for answer %v: %w", d.decode(lin.Key(i)), err)
		}
		ai := AnswerInfluence{Values: d.decode(lin.Key(i)), Probability: circ.Eval(probs)}
		// Distinct variables of this answer's lineage.
		seen := map[int32]bool{}
		for _, c := range clauses {
			for _, v := range c {
				if seen[v] {
					continue
				}
				seen[v] = true
				old := scratch[v]
				scratch[v] = 1
				hi := circ.Eval(scratch)
				scratch[v] = 0
				lo := circ.Eval(scratch)
				scratch[v] = old
				label := labels[v]
				if label == "" {
					label = fmt.Sprintf("x%d", v)
				}
				ai.Tuples = append(ai.Tuples, TupleInfluence{Tuple: label, Influence: hi - lo})
			}
		}
		sort.Slice(ai.Tuples, func(a, b int) bool {
			if ai.Tuples[a].Influence != ai.Tuples[b].Influence {
				return ai.Tuples[a].Influence > ai.Tuples[b].Influence
			}
			return ai.Tuples[a].Tuple < ai.Tuples[b].Tuple
		})
		if topPerAnswer > 0 && len(ai.Tuples) > topPerAnswer {
			ai.Tuples = ai.Tuples[:topPerAnswer]
		}
		out = append(out, ai)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Probability > out[b].Probability })
	return out, nil
}
