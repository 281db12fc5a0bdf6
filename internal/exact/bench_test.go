package exact

import (
	"math/rand"
	"testing"
)

// randomDNF builds a DNF with the given number of variables and clauses.
func randomDNF(nvars, nclauses, width int, rng *rand.Rand) ([][]int32, []float64) {
	probs := make([]float64, nvars)
	for i := range probs {
		probs[i] = rng.Float64() * 0.5
	}
	clauses := make([][]int32, nclauses)
	for i := range clauses {
		c := make([]int32, width)
		for j := range c {
			c[j] = int32(rng.Intn(nvars))
		}
		clauses[i] = c
	}
	return clauses, probs
}

func BenchmarkProbSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	clauses, probs := randomDNF(20, 15, 3, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Prob(clauses, probs)
	}
}

func BenchmarkProbMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	clauses, probs := randomDNF(60, 40, 3, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProbBudget(clauses, probs, 10_000_000); err != nil {
			b.Skip("budget exceeded")
		}
	}
}

func BenchmarkProbReadOnce(b *testing.B) {
	// Disjoint clauses: component decomposition keeps this linear.
	n := 2000
	probs := make([]float64, 2*n)
	clauses := make([][]int32, n)
	for i := 0; i < n; i++ {
		probs[2*i], probs[2*i+1] = 0.1, 0.5
		clauses[i] = []int32{int32(2 * i), int32(2*i + 1)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Prob(clauses, probs)
	}
}
