package exact

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// Lineage families the kernel is held to the reference on. Every clause
// of a family has the same number of variables, as the lineage of a
// self-join-free query does, so nothing is absorbed at the root and the
// kernel's node count equals the reference's exactly.

// chainLineage is the lineage of one answer of a k-chain: a random set of
// paths v0 → v1 → … → vk through layers of the given width, one variable
// per edge.
func chainLineage(rng *rand.Rand, k, width, paths int) ([][]int32, int) {
	edge := map[[3]int]int32{}
	var clauses [][]int32
	for p := 0; p < paths; p++ {
		c := make([]int32, k)
		at := rng.Intn(width)
		for l := 0; l < k; l++ {
			next := rng.Intn(width)
			key := [3]int{l, at, next}
			if _, ok := edge[key]; !ok {
				edge[key] = int32(len(edge))
			}
			c[l] = edge[key]
			at = next
		}
		clauses = append(clauses, c)
	}
	return clauses, len(edge)
}

// starLineage is the lineage of a k-star: every clause takes the hub
// variable of its group and one variable from each of k arms.
func starLineage(rng *rand.Rand, k, hubs, arm, n int) ([][]int32, int) {
	var clauses [][]int32
	for i := 0; i < n; i++ {
		c := []int32{int32(rng.Intn(hubs))}
		for a := 0; a < k; a++ {
			c = append(c, int32(hubs+a*arm+rng.Intn(arm)))
		}
		clauses = append(clauses, c)
	}
	return clauses, hubs + k*arm
}

// bipartiteLineage is a random bipartite DNF: one variable from each side.
func bipartiteLineage(rng *rand.Rand, left, right, n int) ([][]int32, int) {
	var clauses [][]int32
	for i := 0; i < n; i++ {
		clauses = append(clauses, []int32{int32(rng.Intn(left)), int32(left + rng.Intn(right))})
	}
	return clauses, left + right
}

func randomProbs(rng *rand.Rand, n int) []float64 {
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = rng.Float64()
	}
	return probs
}

func words(nvars int) int { return (nvars + 63) / 64 }

// kernelNodes is ProbWith without the read-once attempt, reporting the
// nodes used.
func kernelNodes(clauses [][]int32, probs []float64, budget int, opts SolverOptions) (float64, int, error) {
	opts.NoReadOnce = true
	k := kernels.Get().(*kernel)
	defer k.release()
	r, ok := k.run(clauses, probs, nil, budget, opts)
	if !ok {
		return 0, budget, ErrBudget
	}
	return r.p, budget - k.budget, nil
}

// TestKernelMatchesReference holds the bitset kernel to the [][]int32
// solver it replaced, and both to BruteForce where that is feasible: the
// same probability within 1e-12 and the same node count, on chain, star
// and bipartite lineages one, two and three words wide, under every
// SolverOptions ablation; and ErrBudget exactly when the reference needs
// more nodes than the budget.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	families := []struct {
		name string
		gen  func() ([][]int32, int)
	}{
		{"chain2/1w", func() ([][]int32, int) { return chainLineage(rng, 2, 3, 1+rng.Intn(10)) }},
		{"chain3/1w", func() ([][]int32, int) { return chainLineage(rng, 3, 4, 1+rng.Intn(30)) }},
		{"chain3/2w", func() ([][]int32, int) { return chainLineage(rng, 3, 7, 40+rng.Intn(30)) }},
		{"chain3/3w", func() ([][]int32, int) { return chainLineage(rng, 3, 9, 60+rng.Intn(20)) }},
		{"star2/1w", func() ([][]int32, int) { return starLineage(rng, 2, 3, 5, 1+rng.Intn(14)) }},
		{"star3/2w", func() ([][]int32, int) { return starLineage(rng, 3, 6, 30, 20+rng.Intn(20)) }},
		{"star3/3w", func() ([][]int32, int) { return starLineage(rng, 3, 10, 50, 30+rng.Intn(15)) }},
		{"bipartite/1w", func() ([][]int32, int) { return bipartiteLineage(rng, 6, 8, 1+rng.Intn(20)) }},
		{"bipartite/2w", func() ([][]int32, int) { return bipartiteLineage(rng, 40, 50, 30+rng.Intn(50)) }},
		{"bipartite/3w", func() ([][]int32, int) { return bipartiteLineage(rng, 70, 80, 60+rng.Intn(60)) }},
	}
	const budget = 20_000
	seenWords := map[int]int{}
	brute, solved := 0, 0
	for _, fam := range families {
		for iter := 0; iter < 25; iter++ {
			clauses, nvars := fam.gen()
			probs := randomProbs(rng, nvars)
			seenWords[words(nvars)]++
			// The ablations multiply the reference's cost; one word is
			// enough to hold them to it.
			ablations := []SolverOptions{{}}
			if words(nvars) == 1 {
				ablations = append(ablations, SolverOptions{NoComponents: true}, SolverOptions{NoMemo: true})
			}
			for _, opts := range ablations {
				want, wantNodes, wantErr := refProb(clauses, probs, budget, opts)
				got, gotNodes, gotErr := kernelNodes(clauses, probs, budget, opts)
				if wantErr != gotErr {
					t.Fatalf("%s %+v: kernel err %v, reference err %v", fam.name, opts, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				solved++
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("%s %+v: kernel %v, reference %v on %v", fam.name, opts, got, want, clauses)
				}
				if gotNodes != wantNodes {
					t.Fatalf("%s %+v: kernel used %d nodes, reference %d on %v", fam.name, opts, gotNodes, wantNodes, clauses)
				}
				// Budget parity at the boundary: the reference's count
				// succeeds, one node fewer fails.
				if _, _, err := kernelNodes(clauses, probs, wantNodes, opts); err != nil {
					t.Fatalf("%s %+v: budget %d = the reference's node count: %v", fam.name, opts, wantNodes, err)
				}
				if _, _, err := kernelNodes(clauses, probs, wantNodes-1, opts); err != ErrBudget {
					t.Fatalf("%s %+v: budget %d is one short of the reference's count, got err %v", fam.name, opts, wantNodes-1, err)
				}
			}
			if nvars <= 16 {
				brute++
				if got, want := Prob(clauses, probs), BruteForce(clauses, probs); math.Abs(got-want) > 1e-12 {
					t.Fatalf("%s: Prob %v, brute force %v on %v", fam.name, got, want, clauses)
				}
			}
		}
	}
	if solved < 300 {
		t.Fatalf("only %d runs finished inside the budget", solved)
	}
	for w := 1; w <= 3; w++ {
		if seenWords[w] == 0 {
			t.Fatalf("no lineage %d words wide was generated: %v", w, seenWords)
		}
	}
	if brute < 50 {
		t.Fatalf("only %d lineages were small enough for brute force", brute)
	}
}

// TestKernelNodeCountDiffersOnlyOnAbsorbedLink documents the one place
// the kernel's node count departs from the reference's: it splits into
// components before absorbing, so when the absorbed clause was the only
// link between two parts it splits again one node later.
func TestKernelNodeCountDiffersOnlyOnAbsorbedLink(t *testing.T) {
	// {0,1,2,3} links {0,1} and {2,3} and is absorbed by either; {6,7} is
	// a second component from the start, so the split-again node is not
	// the root.
	clauses := [][]int32{{0, 1}, {0, 1, 2, 3}, {2, 3}, {1, 4}, {3, 5}, {6, 7}}
	probs := []float64{0.5, 0.4, 0.3, 0.6, 0.7, 0.2, 0.9, 0.1}
	want, wantNodes, err := refProb(clauses, probs, 1000, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, gotNodes, err := kernelNodes(clauses, probs, 1000, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 || math.Abs(got-BruteForce(clauses, probs)) > 1e-12 {
		t.Fatalf("kernel %v, reference %v, brute force %v", got, want, BruteForce(clauses, probs))
	}
	if gotNodes != wantNodes+1 {
		t.Fatalf("kernel used %d nodes, reference %d: want exactly one more", gotNodes, wantNodes)
	}
}

// hardLineage is a bipartite DNF over nvars variables that is connected,
// not read-once, and far beyond a small budget.
func hardLineage(nvars int) ([][]int32, []float64) {
	rng := rand.New(rand.NewSource(5))
	half := nvars / 2
	var clauses [][]int32
	for v := 0; v < half; v++ { // every variable occurs; a cycle keeps it connected
		clauses = append(clauses, []int32{int32(v), int32(half + v)}, []int32{int32(v), int32(half + (v+1)%half)})
	}
	for i := 0; i < half; i++ {
		clauses = append(clauses, []int32{int32(rng.Intn(half)), int32(half + rng.Intn(half))})
	}
	return clauses, randomProbs(rng, nvars)
}

// TestBudgetBoundsTheCall: a small budget is all a call costs. On a
// 2 000-variable lineage that is not read-once, budget 64 must come back
// ErrBudget having allocated next to nothing — the old ProbBudget ran the
// read-once factorization (quadratic in the variables, tens of thousands
// of allocations here) before and outside its budget.
func TestBudgetBoundsTheCall(t *testing.T) {
	clauses, probs := hardLineage(2000)
	if _, err := ProbBudget(clauses, probs, 64); err != ErrBudget {
		t.Fatalf("budget 64: err %v, want ErrBudget", err)
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ProbBudget(clauses, probs, 64); err != ErrBudget {
			t.Fatalf("budget 64: err %v, want ErrBudget", err)
		}
	})
	if allocs > 8 {
		t.Fatalf("an abandoned budget-64 attempt allocated %.0f times, want <= 8", allocs)
	}
}

// TestReadOnceStillPays: past the per-clause allowance a generous budget
// still gets the polynomial read-once factorization, so a read-once
// lineage whose DPLL walk is long comes back without spending the budget.
func TestReadOnceStillPays(t *testing.T) {
	// (a1 ∨ … ∨ an)(b1 ∨ … ∨ bn)(c1 ∨ … ∨ cn) as a DNF of n³ clauses.
	const n = 5
	var clauses [][]int32
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for c := 0; c < n; c++ {
				clauses = append(clauses, []int32{int32(a), int32(n + b), int32(2*n + c)})
			}
		}
	}
	probs := randomProbs(rand.New(rand.NewSource(9)), 3*n)
	want := 1.0
	for g := 0; g < 3; g++ {
		miss := 1.0
		for i := 0; i < n; i++ {
			miss *= 1 - probs[g*n+i]
		}
		want *= 1 - miss
	}
	got, err := ProbBudget(clauses, probs, 50_000_000)
	if err != nil || math.Abs(got-want) > 1e-12 {
		t.Fatalf("read-once product: got %v err %v, want %v", got, err, want)
	}
	circ, err := Compile(clauses, 50_000_000)
	if err != nil || math.Abs(circ.Eval(probs)-want) > 1e-12 {
		t.Fatalf("read-once product compiled to %v err %v, want %v", circ, err, want)
	}
}

// TestCircuitIsTheSameWalk: Compile and ProbBudget are one walk, so a
// circuit evaluates to ProbBudget's answer bit for bit.
func TestCircuitIsTheSameWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 60; iter++ {
		clauses, nvars := chainLineage(rng, 3, 5, 1+rng.Intn(40))
		probs := randomProbs(rng, nvars)
		circ, err := Compile(clauses, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ProbBudget(clauses, probs, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if got := circ.Eval(probs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("circuit %v, ProbBudget %v on %v", got, want, clauses)
		}
	}
}

// TestLargeComponentRefused: a connected component whose clause matrix
// would pass maxRowWords is ErrBudget, not an allocation.
func TestLargeComponentRefused(t *testing.T) {
	// A path over 2^14+1 variables: 2^14 clauses × 257 words > 2^22.
	n := 1 << 14
	clauses := make([][]int32, n)
	for i := range clauses {
		clauses[i] = []int32{int32(i), int32(i + 1)}
	}
	probs := make([]float64, n+1)
	if _, err := ProbWith(clauses, probs, 1000, SolverOptions{NoReadOnce: true}); err != ErrBudget {
		t.Fatalf("err %v, want ErrBudget", err)
	}
}

// chain30 is the allocation gate's lineage: 30 distinct clauses of a
// 3-chain.
func chain30() ([][]int32, []float64) {
	rng := rand.New(rand.NewSource(30))
	for {
		clauses, nvars := chainLineage(rng, 3, 5, 30)
		if len(normalize(clauses)) == 30 {
			return clauses, randomProbs(rng, nvars)
		}
	}
}

// TestExactAllocGate pins what one ProbBudget call allocates on a
// 30-clause 3-chain lineage: the old solver took 3 389 allocations and
// 299 KB for such a call (maps, sort.Slice, string memo keys); the kernel
// draws its arena from a pool and takes none once warm.
func TestExactAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	clauses, probs := chain30()
	want, _, err := refProb(clauses, probs, 1_000_000, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		got, err := ProbBudget(clauses, probs, 1_000_000)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Fatalf("got %v err %v, want %v", got, err, want)
		}
	})
	if allocs > 1 {
		t.Fatalf("ProbBudget allocated %.1f times per call on a 30-clause 3-chain lineage, want <= 1", allocs)
	}
}

// FuzzExactKernel decodes arbitrary bytes into a small DNF and holds the
// kernel to the reference solver (value, and node count when no clause is
// absorbed at the root) and to brute force.
func FuzzExactKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 0xff, 1, 2, 0xff, 0, 3})
	f.Add([]byte{2, 0, 1, 0xff, 0, 1, 2, 3, 0xff, 2, 3, 0xff, 1, 4, 0xff, 3, 5}) // an absorbed link
	f.Add([]byte{1, 0xff, 0xff, 5})                                              // an empty clause
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x0102030405060708))
	f.Add([]byte{16, 0, 15, 0xff, 15, 14, 0xff, 14, 13, 0xff, 13, 12, 0xff, 12, 0, 0xff, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		// First byte: variable count (1..16). Then variables, 0xff ends a
		// clause.
		nvars := 1
		if len(data) > 0 {
			nvars = 1 + int(data[0])%16
			data = data[1:]
		}
		var clauses [][]int32
		cur := []int32{}
		for _, b := range data {
			if b == 0xff {
				clauses = append(clauses, cur)
				cur = []int32{}
				continue
			}
			cur = append(cur, int32(int(b)%nvars))
		}
		if len(cur) > 0 {
			clauses = append(clauses, cur)
		}
		probs := make([]float64, nvars)
		for i := range probs {
			probs[i] = float64(i+1) / float64(nvars+2)
		}
		const budget = 1 << 20
		want, wantNodes, err := refProb(clauses, probs, budget, SolverOptions{})
		if err != nil {
			t.Skip()
		}
		got, gotNodes, err := kernelNodes(clauses, probs, budget, SolverOptions{})
		if err != nil {
			t.Fatalf("kernel: %v on %v", err, clauses)
		}
		if math.Abs(got-want) > 1e-12 || math.Abs(got-BruteForce(clauses, probs)) > 1e-12 {
			t.Fatalf("kernel %v, reference %v, brute force %v on %v", got, want, BruteForce(clauses, probs), clauses)
		}
		if gotNodes < wantNodes || gotNodes > wantNodes+len(clauses) {
			t.Fatalf("kernel used %d nodes, reference %d on %v", gotNodes, wantNodes, clauses)
		}
		if len(normalize(clauses)) == len(clauses) && gotNodes != wantNodes {
			t.Fatalf("nothing absorbed, yet kernel used %d nodes and the reference %d on %v", gotNodes, wantNodes, clauses)
		}
		p, err := ProbBudget(clauses, probs, budget)
		if err != nil || math.Abs(p-want) > 1e-12 {
			t.Fatalf("ProbBudget %v err %v, want %v", p, err, want)
		}
		circ, err := Compile(clauses, budget)
		if err != nil || math.Abs(circ.Eval(probs)-want) > 1e-12 {
			t.Fatalf("Compile err %v evaluates to %v, want %v", err, circ, want)
		}
	})
}
