package mc

import (
	"math"
	"math/rand"
	"testing"

	"lapushdb/internal/exact"
)

func TestKarpLubyDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	probs := []float64{0.5}
	if got, _ := KarpLubyCtx(nil, nil, probs, 100, rng); got != 0 {
		t.Errorf("empty formula = %v", got)
	}
	if got, _ := KarpLubyCtx(nil, [][]int32{{}}, probs, 100, rng); got != 1 {
		t.Errorf("empty clause = %v", got)
	}
	if got, _ := KarpLubyCtx(nil, [][]int32{{0}}, []float64{0}, 100, rng); got != 0 {
		t.Errorf("zero-probability clause = %v", got)
	}
}

func TestKarpLubyConvergesToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	probs := []float64{0.5, 0.4, 0.7, 0.2, 0.6}
	clauses := [][]int32{{0, 1}, {0, 2}, {3, 4}, {1, 3}}
	want := exact.Prob(clauses, probs)
	got, _ := KarpLubyCtx(nil, clauses, probs, 200000, rng)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("KL = %v, exact = %v", got, want)
	}
}

// TestKarpLubySmallProbabilities: the regime where naive MC fails. With
// tuple probabilities around 1e-3 and P(F) ≈ 4e-6, naive MC with 10k
// samples almost always returns 0 (useless for ranking); Karp–Luby's
// RELATIVE error stays small.
func TestKarpLubySmallProbabilities(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	probs := []float64{2e-3, 1e-3, 2e-3, 1e-3}
	clauses := [][]int32{{0, 1}, {2, 3}}
	want := exact.Prob(clauses, probs)
	if want > 1e-4 {
		t.Fatalf("test setup: P(F) = %v not small", want)
	}
	kl, _ := KarpLubyCtx(nil, clauses, probs, 10000, rng)
	if rel := math.Abs(kl-want) / want; rel > 0.1 {
		t.Errorf("Karp-Luby relative error %v (est %v, exact %v)", rel, kl, want)
	}
	naive, _ := EstimateCtx(nil, clauses, probs, 10000, rng)
	// Not asserting naive==0 (it is random), but document the contrast:
	// its standard deviation exceeds the quantity being measured.
	_ = naive
}

func TestKarpLubyMatchesExactRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 15; iter++ {
		nvars := 2 + rng.Intn(8)
		probs := make([]float64, nvars)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		var clauses [][]int32
		for i := 0; i < 1+rng.Intn(6); i++ {
			c := make([]int32, 1+rng.Intn(3))
			for j := range c {
				c[j] = int32(rng.Intn(nvars))
			}
			clauses = append(clauses, c)
		}
		want := exact.Prob(clauses, probs)
		got, _ := KarpLubyCtx(nil, clauses, probs, 100000, rng)
		tol := 0.02 + 0.05*want
		if math.Abs(got-want) > tol {
			t.Errorf("iter %d: KL %v vs exact %v", iter, got, want)
		}
	}
}

func BenchmarkKarpLuby(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	nvars := 40
	probs := make([]float64, nvars)
	for i := range probs {
		probs[i] = rng.Float64() * 0.1
	}
	var clauses [][]int32
	for i := 0; i < 30; i++ {
		clauses = append(clauses, []int32{int32(rng.Intn(nvars)), int32(rng.Intn(nvars)), int32(rng.Intn(nvars))})
	}
	b.Run("karp-luby-1k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			KarpLubyCtx(nil, clauses, probs, 1000, rng)
		}
	})
	b.Run("naive-1k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			EstimateCtx(nil, clauses, probs, 1000, rng)
		}
	})
}
