package exact

// The [][]int32 solver the bitset kernel replaced, kept as the reference
// the kernel is held to (kernel_test.go): the same decomposition —
// absorption, independent components, Shannon expansion on the most
// frequent variable with the smallest id among equals, memo on the
// canonical formula — over sorted clause slices and maps. refProb counts
// nodes the way the kernel does, one per formula visited.

import "sort"

// refProb is the old solver: the kernel's walk without its read-once
// attempt. nodes is how many of the budget's nodes the walk used.
func refProb(clauses [][]int32, probs []float64, budget int) (p float64, nodes int, err error) {
	s := &solver{probs: probs, budget: budget, memo: map[string]float64{}}
	p, ok := s.prob(normalize(clauses))
	if !ok {
		return 0, budget, ErrBudget
	}
	return p, budget - s.budget, nil
}

type solver struct {
	probs  []float64
	memo   map[string]float64
	budget int
}

// normalize sorts each clause, removes duplicate variables, sorts the
// clause list, and applies absorption (a clause that is a superset of
// another is redundant in a monotone DNF).
func normalize(clauses [][]int32) [][]int32 {
	norm := make([][]int32, 0, len(clauses))
	for _, c := range clauses {
		cc := append([]int32(nil), c...)
		sort.Slice(cc, func(i, j int) bool { return cc[i] < cc[j] })
		uniq := cc[:0]
		for i, v := range cc {
			if i == 0 || cc[i-1] != v {
				uniq = append(uniq, v)
			}
		}
		norm = append(norm, uniq)
	}
	sort.Slice(norm, func(i, j int) bool { return clauseLess(norm[i], norm[j]) })
	// Dedup identical clauses.
	dedup := norm[:0]
	for i, c := range norm {
		if i == 0 || !clauseEqual(norm[i-1], c) {
			dedup = append(dedup, c)
		}
	}
	return absorb(dedup)
}

// absorb removes clauses that are supersets of other clauses. Quadratic
// in the worst case but pruned by sorting on length.
func absorb(clauses [][]int32) [][]int32 {
	byLen := append([][]int32(nil), clauses...)
	sort.Slice(byLen, func(i, j int) bool { return len(byLen[i]) < len(byLen[j]) })
	var kept [][]int32
	for _, c := range byLen {
		absorbed := false
		for _, k := range kept {
			if isSubset(k, c) {
				absorbed = true
				break
			}
		}
		if !absorbed {
			kept = append(kept, c)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return clauseLess(kept[i], kept[j]) })
	return kept
}

// prob returns the probability of a normalized formula, or ok=false if
// the budget ran out.
func (s *solver) prob(clauses [][]int32) (float64, bool) {
	if s.budget <= 0 {
		return 0, false
	}
	s.budget--
	if len(clauses) == 0 {
		return 0, true
	}
	if len(clauses[0]) == 0 {
		return 1, true // empty clause: formula is true
	}
	if len(clauses) == 1 {
		p := 1.0
		for _, v := range clauses[0] {
			p *= s.probs[v]
		}
		return p, true
	}
	key := encode(clauses)
	if p, ok := s.memo[key]; ok {
		return p, true
	}
	// Independent-component decomposition: clauses not sharing variables
	// form independent subformulas F1 ∨ F2, so
	// P(F) = 1 − (1 − P(F1))(1 − P(F2)).
	comps := components(clauses)
	if len(comps) > 1 {
		miss := 1.0
		for _, comp := range comps {
			p, ok := s.prob(comp)
			if !ok {
				return 0, false
			}
			miss *= 1 - p
		}
		p := 1 - miss
		s.memo[key] = p
		return p, true
	}
	// Shannon expansion on the most frequent variable.
	v := mostFrequent(clauses)
	pv := s.probs[v]
	pTrue, ok := s.prob(condition(clauses, v, true))
	if !ok {
		return 0, false
	}
	pFalse, ok := s.prob(condition(clauses, v, false))
	if !ok {
		return 0, false
	}
	p := pv*pTrue + (1-pv)*pFalse
	s.memo[key] = p
	return p, true
}

// components splits the clause set into groups with disjoint variables.
func components(clauses [][]int32) [][][]int32 {
	parent := make([]int, len(clauses))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	owner := map[int32]int{}
	for i, c := range clauses {
		for _, v := range c {
			if j, ok := owner[v]; ok {
				parent[find(i)] = find(j)
			} else {
				owner[v] = i
			}
		}
	}
	groups := map[int][][]int32{}
	var order []int
	for i, c := range clauses {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], c)
	}
	out := make([][][]int32, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// mostFrequent returns the variable occurring in the most clauses.
func mostFrequent(clauses [][]int32) int32 {
	count := map[int32]int{}
	var best int32
	bestN := -1
	for _, c := range clauses {
		for _, v := range c {
			count[v]++
			if count[v] > bestN || (count[v] == bestN && v < best) {
				best, bestN = v, count[v]
			}
		}
	}
	return best
}

// condition sets variable v to the given truth value: when true, v is
// removed from every clause (a now-empty clause makes the formula true);
// when false, clauses containing v are dropped. The result is
// re-absorbed.
func condition(clauses [][]int32, v int32, value bool) [][]int32 {
	var out [][]int32
	for _, c := range clauses {
		idx := -1
		for i, x := range c {
			if x == v {
				idx = i
				break
			}
		}
		if idx < 0 {
			out = append(out, c)
			continue
		}
		if !value {
			continue
		}
		nc := make([]int32, 0, len(c)-1)
		nc = append(nc, c[:idx]...)
		nc = append(nc, c[idx+1:]...)
		if len(nc) == 0 {
			return [][]int32{{}} // formula is true
		}
		out = append(out, nc)
	}
	return absorb(out)
}

func encode(clauses [][]int32) string {
	n := 0
	for _, c := range clauses {
		n += len(c) + 1
	}
	b := make([]byte, 0, n*4)
	for _, c := range clauses {
		for _, v := range c {
			b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		b = append(b, 0xff, 0xff, 0xff, 0xfe)
	}
	return string(b)
}

func clauseLess(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
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

// isSubset reports whether sorted slice a ⊆ sorted slice b.
func isSubset(a, b []int32) bool {
	i := 0
	for _, v := range b {
		if i < len(a) && a[i] == v {
			i++
		}
	}
	return i == len(a)
}
