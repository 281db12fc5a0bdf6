package lineage_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lapushdb/internal/exact"
	. "lapushdb/internal/lineage"
)

func TestNormalize(t *testing.T) {
	f := DNF{{2, 1, 1}, {1, 2}, {1, 2, 3}, {4}}
	n := f.Normalize()
	// {1,2} deduped, {1,2,3} absorbed by {1,2}, {4} kept.
	if len(n) != 2 {
		t.Fatalf("normalized = %v", n)
	}
	if !clauseEqual(n[0], []int32{1, 2}) || !clauseEqual(n[1], []int32{4}) {
		t.Errorf("normalized = %v", n)
	}
}

func TestVarsAndStats(t *testing.T) {
	f := DNF{{0, 1}, {0, 2}}
	if got := f.Vars(); len(got) != 3 {
		t.Errorf("vars = %v", got)
	}
	occ := occurrences(f)
	if occ[0] != 2 || occ[1] != 1 {
		t.Errorf("occurrences = %v", occ)
	}
	if f.Size() != 2 {
		t.Errorf("size = %d", f.Size())
	}
	if f.IsTrue() || !(DNF{{}}).IsTrue() {
		t.Error("IsTrue wrong")
	}
}

func TestString(t *testing.T) {
	f := DNF{{0, 1}, {2}}
	if got := f.String(nil); got != "x0·x1 ∨ x2" {
		t.Errorf("string = %q", got)
	}
	if got := (DNF{}).String(nil); got != "false" {
		t.Errorf("empty = %q", got)
	}
	if got := (DNF{{}}).String(nil); got != "true" {
		t.Errorf("true = %q", got)
	}
}

func TestDissociateUpperBound(t *testing.T) {
	// F = X0·X1 ∨ X0·X2 dissociated on X0 gives Example 9's F'.
	f := DNF{{0, 1}, {0, 2}}
	probs := []float64{0.5, 0.4, 0.7, 0, 0}
	dis, fresh, next := dissociate(f, 0, 3)
	if len(fresh) != 2 || next != 5 {
		t.Fatalf("fresh = %v, next = %d", fresh, next)
	}
	for _, id := range fresh {
		probs[id] = probs[0]
	}
	p := exact.Prob(f, probs)
	pd := exact.Prob(dis, probs)
	want := 0.5*0.4 + 0.5*0.7 - 0.25*0.4*0.7 // pq + pr − p²qr
	if math.Abs(pd-want) > 1e-12 {
		t.Errorf("dissociated = %v, want %v", pd, want)
	}
	if pd < p {
		t.Errorf("dissociation lowered probability: %v < %v", pd, p)
	}
}

// occurrences returns how many clauses each variable appears in.
func occurrences(f DNF) map[int32]int {
	out := map[int32]int{}
	for _, c := range f {
		seen := map[int32]bool{}
		for _, v := range c {
			if !seen[v] {
				seen[v] = true
				out[v]++
			}
		}
	}
	return out
}

// dissociate replaces the occurrences of variable v in different clauses
// with fresh variables starting at nextID, returning the dissociated
// formula, the ids used (one per clause containing v, in clause order),
// and the next unused id. By Theorem 8, if the fresh variables get v's
// probability, the dissociated formula's probability upper-bounds the
// original's.
func dissociate(f DNF, v int32, nextID int32) (DNF, []int32, int32) {
	out := make(DNF, len(f))
	var fresh []int32
	for i, c := range f {
		has := false
		for _, x := range c {
			if x == v {
				has = true
				break
			}
		}
		if !has {
			out[i] = append([]int32(nil), c...)
			continue
		}
		id := nextID
		nextID++
		fresh = append(fresh, id)
		nc := make([]int32, 0, len(c))
		for _, x := range c {
			if x == v {
				nc = append(nc, id)
			} else {
				nc = append(nc, x)
			}
		}
		out[i] = nc
	}
	return out, fresh, nextID
}

func TestFactorExamples(t *testing.T) {
	probs := []float64{0.5, 0.4, 0.7, 0.2}
	cases := []struct {
		name     string
		f        DNF
		readOnce bool
	}{
		{"X(Y+Z)", DNF{{0, 1}, {0, 2}}, true},
		{"single clause", DNF{{0, 1, 2}}, true},
		{"independent clauses", DNF{{0}, {1}, {2}}, true},
		{"grid product", DNF{{0, 2}, {0, 3}, {1, 2}, {1, 3}}, true}, // (X0+X1)(X2+X3)
		{"P4 path", DNF{{0, 1}, {1, 2}, {2, 3}}, false},             // canonical non-read-once
		{"triangle-ish", DNF{{0, 1}, {1, 2}, {0, 2}}, false},
	}
	for _, c := range cases {
		tree, ok := Factor(c.f)
		if ok != c.readOnce {
			t.Errorf("%s: read-once = %v, want %v", c.name, ok, c.readOnce)
			continue
		}
		if !ok {
			continue
		}
		got := tree.Prob(probs)
		want := exact.Prob(c.f, probs)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: tree prob %v, exact %v (tree %s)", c.name, got, want, tree)
		}
		// Every variable occurs exactly once in the tree.
		if tree.VarCount() != len(c.f.Normalize().Vars()) {
			t.Errorf("%s: tree has %d leaves for %d vars", c.name, tree.VarCount(), len(c.f.Vars()))
		}
	}
}

func TestFactorTrivial(t *testing.T) {
	if tr, ok := Factor(DNF{}); !ok || tr.Kind != TreeFalse || tr.Prob(nil) != 0 {
		t.Error("empty formula should factor to false")
	}
	if tr, ok := Factor(DNF{{}}); !ok || tr.Kind != TreeTrue || tr.Prob(nil) != 1 {
		t.Error("empty clause should factor to true")
	}
	if tr, ok := Factor(DNF{{5}}); !ok || tr.Kind != TreeVar || tr.Var != 5 {
		t.Error("single variable")
	}
}

// randomReadOnceTree builds a random read-once tree and its DNF
// expansion.
func randomReadOnceTree(rng *rand.Rand, nextVar *int32, depth int) (*Tree, DNF) {
	if depth == 0 || rng.Float64() < 0.3 {
		v := *nextVar
		*nextVar++
		return &Tree{Kind: TreeVar, Var: v}, DNF{{v}}
	}
	k := 2 + rng.Intn(2)
	children := make([]*Tree, k)
	dnfs := make([]DNF, k)
	for i := 0; i < k; i++ {
		children[i], dnfs[i] = randomReadOnceTree(rng, nextVar, depth-1)
	}
	if rng.Float64() < 0.5 {
		// OR: union of clause sets.
		var f DNF
		for _, d := range dnfs {
			f = append(f, d...)
		}
		return &Tree{Kind: TreeOr, Children: children}, f
	}
	// AND: cartesian product of clause sets.
	f := DNF{{}}
	for _, d := range dnfs {
		var nf DNF
		for _, a := range f {
			for _, b := range d {
				c := append(append([]int32(nil), a...), b...)
				nf = append(nf, c)
			}
		}
		f = nf
	}
	return &Tree{Kind: TreeAnd, Children: children}, f
}

// TestFactorQuickReadOnce: the expansion of any read-once tree factors
// back, and the probabilities agree with the DPLL solver.
func TestFactorQuickReadOnce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var next int32
		_, dnf := randomReadOnceTree(rng, &next, 3)
		if len(dnf) > 64 {
			return true // keep the oracle cheap
		}
		probs := make([]float64, next)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		tree, ok := Factor(dnf)
		if !ok {
			return false
		}
		return math.Abs(tree.Prob(probs)-exact.Prob(dnf, probs)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFactorQuickSound: whenever Factor succeeds on a random formula,
// the tree's probability matches the solver's.
func TestFactorQuickSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nvars := 2 + rng.Intn(8)
		probs := make([]float64, nvars)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		n := 1 + rng.Intn(6)
		var dnf DNF
		for i := 0; i < n; i++ {
			w := 1 + rng.Intn(3)
			c := make([]int32, w)
			for j := range c {
				c[j] = int32(rng.Intn(nvars))
			}
			dnf = append(dnf, c)
		}
		tree, ok := Factor(dnf)
		if !ok {
			return true
		}
		return math.Abs(tree.Prob(probs)-exact.Prob(dnf, probs)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTreeString(t *testing.T) {
	tree, ok := Factor(DNF{{0, 1}, {0, 2}})
	if !ok {
		t.Fatal("should factor")
	}
	s := tree.String()
	if s != "x0·(x1 + x2)" && s != "(x1 + x2)·x0" {
		t.Errorf("tree rendering = %q", s)
	}
}

func clauseEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
