package lapushdb

import (
	"context"
	"fmt"
	"sort"

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
// budget of Options.ExactBudget applies per answer. The bounds are
// evaluated as RankContext evaluates them, so ctx, MaxIntermediateRows
// and the Opt1-3 switches mean what they mean there.
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

	// Upper bounds from the dissociation plans, then the lineages, keyed
	// like the bound rows.
	bounds, err := d.evalDissociation(ctx, q, nil, opts)
	if err != nil {
		return nil, err
	}
	lin, err := d.evalLineage(ctx, q, opts)
	if err != nil {
		return nil, err
	}
	clausesByKey := make(map[string][][]int32, lin.Len())
	for i := 0; i < lin.Len(); i++ {
		clausesByKey[valueKey(lin.Key(i))] = lin.Clauses(i)
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
		p, err := s.score(ctx, c.row, clausesByKey[valueKey(c.row)])
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

// RankTopKAnytime is the anytime counterpart of RankTopK: the top-k
// answers as [lower, upper] intervals, refined until the requested
// epsilon, the deadline, or the budgets stop the search. Unlike
// RankTopK it never requires full exact inference: an answer whose
// upper bound falls below the running k-th largest lower bound is
// pruned from further refinement (and from the result), so the
// intervals that survive are exactly the candidates still able to be
// in the top k. At most k answers are returned when the result
// converged; a non-converged result may carry more — the remaining
// candidates whose intervals still overlap the k-th place.
func (d *DB) RankTopKAnytime(ctx context.Context, query string, k int, opts *AnytimeOptions) (*AnytimeResult, error) {
	if opts == nil {
		opts = &AnytimeOptions{}
	}
	if k <= 0 {
		return nil, fmt.Errorf("lapushdb: k must be positive")
	}
	ao := *opts
	ao.topK = k
	res, err := d.RankAnytimeContext(ctx, query, &ao)
	if err != nil {
		return nil, err
	}
	if res.Converged && len(res.Answers) > k {
		res.Answers = res.Answers[:k]
	}
	return res, nil
}

// RankUnion ranks the answers of a union of conjunctive queries (all
// with the same head arity). Under the Dissociation method the combined
// score is 1 − ∏(1 − ρi): by the FKG inequality the answers of
// monotone queries over independent tuples are positively correlated,
// so the independent-OR of per-query upper bounds is itself a valid
// upper bound on the union's probability. Exact and MonteCarlo operate
// on the union of the lineages, which is exact. Other methods are not
// supported. ctx is polled as RankContext polls it.
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
	switch opts.Method {
	case Dissociation:
		combined := map[string]float64{} // key -> ∏(1 − ρi)
		vals := map[string][]string{}
		for _, q := range parsed {
			answers, err := d.rankDissociation(ctx, q, nil, opts)
			if err != nil {
				return nil, err
			}
			for _, a := range answers {
				key := stringsKey(a.Values)
				if _, ok := combined[key]; !ok {
					combined[key] = 1
					vals[key] = a.Values
				}
				combined[key] *= 1 - a.Score
			}
		}
		out := make([]Answer, 0, len(combined))
		for key, miss := range combined {
			out = append(out, Answer{Values: vals[key], Score: 1 - miss})
		}
		sortAnswers(out)
		return out, nil
	case Exact, MonteCarlo:
		// Union of lineages per answer, in first-appearance order, then
		// the one scorer on each combined DNF.
		var keys [][]engine.Value
		var clauses [][][]int32
		index := map[string]int{}
		for _, q := range parsed {
			lin, err := d.evalLineage(ctx, q, opts)
			if err != nil {
				return nil, err
			}
			for i := 0; i < lin.Len(); i++ {
				key := valueKey(lin.Key(i))
				j, ok := index[key]
				if !ok {
					j = len(keys)
					index[key] = j
					keys = append(keys, lin.Key(i))
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

func valueKey(vals []engine.Value) string {
	b := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		u := uint64(v)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24), byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return string(b)
}

func stringsKey(vals []string) string {
	b := make([]byte, 0, 32)
	for _, v := range vals {
		b = append(b, byte(len(v)), byte(len(v)>>8))
		b = append(b, v...)
	}
	return string(b)
}
