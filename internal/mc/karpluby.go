package mc

import (
	"context"
	"math/rand"
)

// KarpLubyCtx estimates the probability of a monotone DNF with the
// Karp–Luby–Madras coverage algorithm — the classical FPRAS for DNF
// counting, adapted to weighted (probabilistic) variables. Unlike naive
// possible-world sampling, its relative error is bounded independently
// of how small P(F) is, which is exactly the regime (small input
// probabilities) where the paper shows naive MC needs many samples.
//
// The estimator: let U = Σ_i P(clause_i) (clauses treated in
// isolation). Sample a clause i with probability P(clause_i)/U, then a
// world x conditioned on clause_i being true, and output
// U / N(x) where N(x) is the number of clauses satisfied by x. The
// expectation of the output is exactly P(F); averaging over `samples`
// draws gives the estimate. The sampling loop polls ctx every
// pollInterval rounds and returns its error when it is done. A nil ctx
// never cancels.
//
// It is a one-shot convenience over KarpLubySampler, drawing the same
// RNG stream: KarpLubyCtx(ctx, c, p, n, rng) equals building a sampler
// and calling Sample(ctx, n) once.
func KarpLubyCtx(ctx context.Context, clauses [][]int32, probs []float64, samples int, rng *rand.Rand) (float64, error) {
	s := NewKarpLubySampler(clauses, probs, rng)
	if err := s.Sample(ctx, samples); err != nil {
		return 0, err
	}
	return s.Estimate(), nil
}
