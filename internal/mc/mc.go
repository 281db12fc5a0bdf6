// Package mc implements the Monte Carlo baseline MC(x) of the paper's
// experiments: the probability of each answer is estimated by sampling
// possible worlds of its lineage DNF x times.
package mc

import (
	"context"
	"math/rand"
	"sort"
)

// pollInterval is how many sampling rounds may pass between two context
// polls in EstimateCtx and KarpLubySampler.Sample.
const pollInterval = 1024

// EstimateCtx samples the monotone DNF formula `samples` times: in each
// round every variable is independently set true with its probability and
// the formula evaluated; the estimate is the fraction of satisfying
// rounds. The sampling loop polls ctx every pollInterval rounds and
// returns its error when it is done. A nil ctx never cancels.
func EstimateCtx(ctx context.Context, clauses [][]int32, probs []float64, samples int, rng *rand.Rand) (float64, error) {
	if len(clauses) == 0 {
		return 0, nil
	}
	for _, c := range clauses {
		if len(c) == 0 {
			return 1, nil
		}
	}
	// Local variable ids keep the truth buffer dense.
	vars := map[int32]int{}
	var order []int32
	for _, c := range clauses {
		for _, v := range c {
			if _, ok := vars[v]; !ok {
				vars[v] = 0
				order = append(order, v)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for i, v := range order {
		vars[v] = i
	}
	local := make([][]int32, len(clauses))
	for i, c := range clauses {
		lc := make([]int32, len(c))
		for j, v := range c {
			lc[j] = int32(vars[v])
		}
		local[i] = lc
	}
	p := make([]float64, len(order))
	for i, v := range order {
		p[i] = probs[v]
	}
	truth := make([]bool, len(order))
	hits := 0
	for s := 0; s < samples; s++ {
		if ctx != nil && s%pollInterval == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		for i := range truth {
			truth[i] = rng.Float64() < p[i]
		}
		for _, c := range local {
			sat := true
			for _, v := range c {
				if !truth[v] {
					sat = false
					break
				}
			}
			if sat {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(samples), nil
}
