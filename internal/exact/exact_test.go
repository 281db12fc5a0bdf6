package exact

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func TestProbBasics(t *testing.T) {
	probs := []float64{0.5, 0.4, 0.7}
	cases := []struct {
		name    string
		clauses [][]int32
		want    float64
	}{
		{"empty formula", nil, 0},
		{"empty clause", [][]int32{{}}, 1},
		{"single var", [][]int32{{0}}, 0.5},
		{"single clause", [][]int32{{0, 1}}, 0.2},
		{"two independent vars", [][]int32{{1}, {2}}, 1 - 0.6*0.3},
		// Example 7: F = XY ∨ XZ with p=0.5, q=0.4, r=0.7:
		// P = p(q + r − qr) = 0.5 * 0.82 = 0.41.
		{"example 7", [][]int32{{0, 1}, {0, 2}}, 0.41},
		// Absorption: X ∨ XY = X.
		{"absorption", [][]int32{{0}, {0, 1}}, 0.5},
		// Duplicate clause.
		{"duplicate", [][]int32{{0}, {0}}, 0.5},
		// Repeated variable inside a clause.
		{"repeated var", [][]int32{{1, 1}}, 0.4},
	}
	for _, c := range cases {
		if got := Prob(c.clauses, probs); math.Abs(got-c.want) > eps {
			t.Errorf("%s: Prob = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestProbMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		nvars := 1 + rng.Intn(10)
		probs := make([]float64, nvars)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		nclauses := 1 + rng.Intn(8)
		clauses := make([][]int32, nclauses)
		for i := range clauses {
			width := 1 + rng.Intn(4)
			c := make([]int32, width)
			for j := range c {
				c[j] = int32(rng.Intn(nvars))
			}
			clauses[i] = c
		}
		want := BruteForce(clauses, probs)
		got := Prob(clauses, probs)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("iter %d: Prob = %v, brute force = %v, clauses = %v, probs = %v",
				iter, got, want, clauses, probs)
		}
	}
}

// TestProbQuick uses testing/quick to generate random small formulas and
// compares the solver against brute force.
func TestProbQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nvars := 1 + rng.Intn(8)
		probs := make([]float64, nvars)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		nclauses := rng.Intn(6)
		clauses := make([][]int32, nclauses)
		for i := range clauses {
			width := 1 + rng.Intn(3)
			c := make([]int32, width)
			for j := range c {
				c[j] = int32(rng.Intn(nvars))
			}
			clauses[i] = c
		}
		return math.Abs(Prob(clauses, probs)-BruteForce(clauses, probs)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestProbMonotone: adding a clause never decreases the probability of a
// monotone DNF.
func TestProbMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nvars := 2 + rng.Intn(8)
		probs := make([]float64, nvars)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		var clauses [][]int32
		prev := 0.0
		for i := 0; i < 5; i++ {
			width := 1 + rng.Intn(3)
			c := make([]int32, width)
			for j := range c {
				c[j] = int32(rng.Intn(nvars))
			}
			clauses = append(clauses, c)
			p := Prob(clauses, probs)
			if p < prev-1e-12 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDissociationUpperBound is Theorem 8 at the formula level: replacing
// occurrences of a variable in different clauses with fresh independent
// copies never decreases the probability.
func TestDissociationUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nvars := 2 + rng.Intn(6)
		probs := make([]float64, nvars, nvars+8)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		nclauses := 2 + rng.Intn(5)
		clauses := make([][]int32, nclauses)
		for i := range clauses {
			width := 1 + rng.Intn(3)
			c := make([]int32, 0, width)
			seen := map[int32]bool{}
			for j := 0; j < width; j++ {
				v := int32(rng.Intn(nvars))
				if !seen[v] {
					seen[v] = true
					c = append(c, v)
				}
			}
			clauses[i] = c
		}
		base := Prob(clauses, probs)
		// Dissociate variable 0: each clause containing it gets a fresh
		// copy with the same probability (no two copies share a clause,
		// satisfying Theorem 8's condition).
		dis := make([][]int32, len(clauses))
		dprobs := probs
		for i, c := range clauses {
			nc := append([]int32(nil), c...)
			for j, v := range nc {
				if v == 0 {
					fresh := int32(len(dprobs))
					dprobs = append(dprobs, probs[0])
					nc[j] = fresh
				}
			}
			dis[i] = nc
		}
		return Prob(dis, dprobs) >= base-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestDeterministicDissociationExact is Theorem 8(2): dissociating a
// variable with probability 0 or 1 does not change the probability.
func TestDeterministicDissociationExact(t *testing.T) {
	for _, p0 := range []float64{0, 1} {
		probs := []float64{p0, 0.3, 0.8, p0}
		f := [][]int32{{0, 1}, {0, 2}}
		fd := [][]int32{{0, 1}, {3, 2}} // variable 0 dissociated into 0 and 3
		if math.Abs(Prob(f, probs)-Prob(fd, probs)) > eps {
			t.Errorf("p0 = %v: dissociation changed probability", p0)
		}
	}
}

func TestProbBudget(t *testing.T) {
	// A formula engineered to exceed a tiny budget.
	rng := rand.New(rand.NewSource(7))
	nvars := 30
	probs := make([]float64, nvars)
	for i := range probs {
		probs[i] = rng.Float64()
	}
	var clauses [][]int32
	for i := 0; i < 40; i++ {
		c := []int32{int32(rng.Intn(nvars)), int32(rng.Intn(nvars)), int32(rng.Intn(nvars))}
		clauses = append(clauses, c)
	}
	if _, err := ProbBudget(clauses, probs, 3); err != ErrBudget {
		t.Errorf("expected ErrBudget, got %v", err)
	}
	// A generous budget succeeds and matches an unconstrained run.
	p1, err := ProbBudget(clauses, probs, 10_000_000)
	if err != nil {
		t.Fatalf("budget run failed: %v", err)
	}
	if math.Abs(p1-Prob(clauses, probs)) > eps {
		t.Error("budgeted result differs")
	}
}

func TestLargeReadOnceFormulaFast(t *testing.T) {
	// A read-once formula (all clauses disjoint) with 10k clauses must be
	// handled by component decomposition without Shannon blowup.
	n := 10000
	probs := make([]float64, 2*n)
	clauses := make([][]int32, n)
	miss := 1.0
	for i := 0; i < n; i++ {
		probs[2*i], probs[2*i+1] = 0.01, 0.5
		clauses[i] = []int32{int32(2 * i), int32(2*i + 1)}
		miss *= 1 - 0.005
	}
	got := Prob(clauses, probs)
	want := 1 - miss
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Prob = %v, want %v", got, want)
	}
}
