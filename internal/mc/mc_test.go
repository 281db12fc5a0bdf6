package mc

import (
	"math"
	"math/rand"
	"testing"

	"lapushdb/internal/exact"
)

func TestEstimateDegenerate(t *testing.T) {
	probs := []float64{0.5}
	rng := rand.New(rand.NewSource(1))
	if got, _ := EstimateCtx(nil, nil, probs, 100, rng); got != 0 {
		t.Errorf("empty formula = %v, want 0", got)
	}
	if got, _ := EstimateCtx(nil, [][]int32{{}}, probs, 100, rng); got != 1 {
		t.Errorf("empty clause = %v, want 1", got)
	}
}

func TestEstimateConvergesToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	probs := []float64{0.5, 0.4, 0.7, 0.2}
	clauses := [][]int32{{0, 1}, {0, 2}, {3}}
	want := exact.Prob(clauses, probs)
	got, _ := EstimateCtx(nil, clauses, probs, 200000, rng)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("MC estimate = %v, exact = %v", got, want)
	}
}

func TestEstimateVarianceShrinks(t *testing.T) {
	probs := []float64{0.5, 0.4, 0.7}
	clauses := [][]int32{{0, 1}, {0, 2}}
	want := exact.Prob(clauses, probs)
	spread := func(samples, reps int) float64 {
		worst := 0.0
		for r := 0; r < reps; r++ {
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			got, _ := EstimateCtx(nil, clauses, probs, samples, rng)
			if d := math.Abs(got - want); d > worst {
				worst = d
			}
		}
		return worst
	}
	small := spread(50, 20)
	large := spread(50000, 20)
	if large >= small {
		t.Errorf("error did not shrink with more samples: %v -> %v", small, large)
	}
	if large > 0.02 {
		t.Errorf("large-sample error too big: %v", large)
	}
}
