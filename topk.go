package lapushdb

import (
	"context"
	"fmt"
	"sort"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
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

// RankUnion ranks the answers of a union of conjunctive queries (all
// with the same head arity). Under the Dissociation method the combined
// score is 1 − ∏(1 − ρi): by the FKG inequality the answers of
// monotone queries over independent tuples are positively correlated,
// so the independent-OR of per-query upper bounds is itself a valid
// upper bound on the union's probability. Exact and MonteCarlo operate
// on the union of the lineages, which is exact. Other methods are not
// supported. Each arm is evaluated as RankContext evaluates it, under
// its own MaxIntermediateRows; ctx is polled as RankContext polls it.
func (d *DB) RankUnion(ctx context.Context, queries []string, opts *Options) ([]Answer, error) {
	if opts == nil {
		opts = &Options{}
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("lapushdb: empty union")
	}
	parsed := make([]*cq.Query, len(queries))
	arity := -1
	for i, qs := range queries {
		q, err := parseChecked(d, qs)
		if err != nil {
			return nil, err
		}
		if arity < 0 {
			arity = len(q.Head)
		} else if len(q.Head) != arity {
			return nil, fmt.Errorf("lapushdb: union arms have different head arities (%d vs %d)", arity, len(q.Head))
		}
		parsed[i] = q
	}
	// The answers in first-appearance order across the arms, matched by
	// engine.AppendKey over their head values.
	var keys [][]engine.Value
	index := map[string]int{}
	var kb []byte
	slot := func(key []engine.Value) int {
		kb = engine.AppendKey(kb[:0], key)
		j, ok := index[string(kb)]
		if !ok {
			j = len(keys)
			index[string(kb)] = j
			keys = append(keys, key)
		}
		return j
	}
	switch opts.Method {
	case Dissociation:
		var miss []float64 // ∏(1 − ρi) per answer, over the arms in order
		for _, q := range parsed {
			sp := core.SinglePlan(q, d.schema(q, opts))
			var res *engine.Result
			if err := d.evaluate(ctx, q, opts, func(e *engine.Evaluator) { res = e.Eval(sp) }); err != nil {
				return nil, err
			}
			for i := 0; i < res.Len(); i++ {
				j := slot(res.Row(i))
				if j == len(miss) {
					miss = append(miss, 1)
				}
				miss[j] *= 1 - res.Score(i)
			}
		}
		out := make([]Answer, len(keys))
		for j, key := range keys {
			out[j] = Answer{Values: d.decode(key), Score: 1 - miss[j]}
		}
		sortAnswers(out)
		return out, nil
	case Exact, MonteCarlo:
		// Union of lineages per answer, then the one scorer on each
		// combined DNF.
		var clauses [][][]int32
		for _, q := range parsed {
			var lin *engine.Lineage
			if err := d.evaluate(ctx, q, opts, func(e *engine.Evaluator) { lin = e.Lineage(q) }); err != nil {
				return nil, err
			}
			for i := 0; i < lin.Len(); i++ {
				j := slot(lin.Key(i))
				if j == len(clauses) {
					clauses = append(clauses, nil)
				}
				clauses[j] = append(clauses[j], lin.Clauses(i)...)
			}
		}
		return d.newScorer(opts.Method, opts).rank(ctx, len(keys),
			func(i int) []engine.Value { return keys[i] },
			func(i int) [][]int32 { return clauses[i] })
	default:
		return nil, fmt.Errorf("lapushdb: RankUnion supports Dissociation, Exact, and MonteCarlo")
	}
}
