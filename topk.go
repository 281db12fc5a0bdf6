package lapushdb

import (
	"context"
	"fmt"
	"sort"

	"lapushdb/internal/core"
	"lapushdb/internal/engine"
)

// RankTopK returns the top-k answers by EXACT probability, using the
// dissociation upper bounds for early termination: answers are examined
// in descending propagation-score order, and since every score is a
// guaranteed upper bound (Corollary 19 of the paper), the search stops
// as soon as the next answer, scored by its bound, ranks after the k-th
// best exact answer found (ties broken by values, as RankContext breaks
// them) — usually after exact inference on only a handful of lineages.
// This turns the paper's one-sided guarantee into a provably correct
// top-k operator.
//
// Exact inference on the examined answers must be feasible; the node
// budget of Options.ExactBudget applies per answer. The bounds and the
// lineages come from one evaluation, so the inputs are reduced once and
// MaxIntermediateRows covers both; ctx is polled as RankContext polls it.
func (d *DB) RankTopK(ctx context.Context, query string, k int, opts *Options) ([]Answer, error) {
	if opts == nil {
		opts = &Options{}
	}
	if k <= 0 {
		return nil, fmt.Errorf("lapushdb: k must be positive")
	}
	q, err := parseChecked(d, query)
	if err != nil {
		return nil, err
	}

	// Upper bounds from the merged dissociation plan, then the lineages,
	// keyed like the bound rows.
	sp := core.SinglePlan(q, d.schema(q, opts))
	var bounds *engine.Result
	var lin *engine.Lineage
	if err := d.evaluate(ctx, q, opts, func(e *engine.Evaluator) {
		bounds = e.Eval(sp)
		lin = e.Lineage(q)
	}); err != nil {
		return nil, err
	}
	clausesByKey := make(map[string][][]int32, lin.Len())
	var kb []byte
	for i := 0; i < lin.Len(); i++ {
		kb = engine.AppendKey(kb[:0], lin.Key(i))
		clausesByKey[string(kb)] = lin.Clauses(i)
	}

	// Candidates in the order answers rank, by bound and then by values,
	// so one that ties the k-th exact probability is examined exactly
	// when its values sort before the k-th answer's.
	type cand struct {
		row []engine.Value
		ans Answer // Score holds the bound
	}
	cands := make([]cand, bounds.Len())
	for i := range cands {
		row := bounds.Row(i)
		cands[i] = cand{row: row, ans: Answer{Values: d.decode(row), Score: bounds.Score(i)}}
	}
	sort.Slice(cands, func(i, j int) bool { return answerLess(cands[i].ans, cands[j].ans) })

	s := d.newScorer(Exact, opts)
	var top []Answer
	for _, c := range cands {
		if len(top) == k && answerLess(top[k-1], c.ans) {
			break // no remaining answer can enter the top k
		}
		kb = engine.AppendKey(kb[:0], c.row)
		p, err := s.score(ctx, c.row, clausesByKey[string(kb)])
		if err != nil {
			return nil, err
		}
		top = append(top, Answer{Values: c.ans.Values, Score: p})
		sortAnswers(top)
		if len(top) > k {
			top = top[:k]
		}
	}
	return top, nil
}
