package server

import "lapushdb"

// Anytime request path. A /v1/query (or /v1/rank_batch) request that
// carries an epsilon is answered with [lower, upper] probability
// intervals, refined until every answer's width reaches epsilon or the
// deadline fires — and, the robustness payoff, the failure paths
// degrade instead of discarding work:
//
//   - deadline (would be 504) and row budget (would be 422) during
//     refinement return 200 with the best-so-far, non-converged
//     intervals, as long as at least one refinement stage completed;
//   - shed at admission (would be 429) and deadline at admission serve
//     a stale cached interval of any width as a degraded 200 when one
//     exists for the query.
//
// Result-cache entries are tagged with the width they achieved: a
// request with a looser epsilon is a hit, a tighter one re-refines, and
// a wider re-computation never overwrites a tighter cached interval.

// anytimeMCMax resolves the per-answer Monte Carlo sample cap from the
// request's samples field (0 = the anytime default). The resolved value
// is part of the result-cache key, so an explicit default and an
// omitted field share an entry.
func anytimeMCMax(samples int) int {
	if samples <= 0 {
		return lapushdb.DefaultAnytimeMCMaxSamples
	}
	return samples
}

// degradeLabels maps the failure classes (errorStatus codes) a degraded
// anytime response can stand in for to the label it reports; every
// other failure (cancellation, a bad query) must surface as itself.
var degradeLabels = map[string]string{"overloaded": "shed", "deadline_exceeded": "deadline", "budget_exceeded": "budget"}
