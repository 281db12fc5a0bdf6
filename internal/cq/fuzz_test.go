package cq

import (
	"math/bits"
	"testing"
)

// FuzzParse checks that the parser never panics and that every
// successfully parsed query survives a String/Parse round trip.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"q(z) :- R(z, x), S(x, y), T(y)",
		"q() :- R(x), S(x, y)",
		"Q(a) :- S(s, a), PS(s, u), P(u, n), s <= 1000, n like '%red%'",
		"q() :- R1('a', x1), R2(x2), R0(x1, x2)",
		"q(",
		"q() :- ",
		"q() :- R(x), R(x)",
		"q() :- R('unclosed",
		"1 + 2",
		"q(x) :- R(x), x >= 0, x != 3, x < 9, x > 1, x = 2",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		rendered := q.String()
		back, err := Parse(rendered)
		if err != nil {
			t.Fatalf("round trip failed: %q -> %q: %v", input, rendered, err)
		}
		if back.String() != rendered {
			t.Fatalf("round trip unstable: %q -> %q", rendered, back.String())
		}
	})
}

// refGroups is the map-based connectivity analysis the mask code of Bits
// replaced, kept as FuzzAnalyses's reference: it partitions the atom
// indices into connected components, two atoms being connected when they
// share a variable that is neither a head variable nor in extra. Groups
// hold ascending indices and are ordered by their first atom.
func refGroups(q *Query, extra VarSet) [][]int {
	n := len(q.Atoms)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	head := q.HeadSet()
	first := map[Var]int{}
	for i, a := range q.Atoms {
		for _, t := range a.Args {
			if !t.IsVar() || head.Has(t.Var) || extra.Has(t.Var) {
				continue
			}
			if j, ok := first[t.Var]; ok {
				parent[find(i)] = find(j)
			} else {
				first[t.Var] = i
			}
		}
	}
	slot := make([]int, n) // root -> 1 + its index into groups
	var groups [][]int
	for i := 0; i < n; i++ {
		r := find(i)
		if slot[r] == 0 {
			groups = append(groups, nil)
			slot[r] = len(groups)
		}
		groups[slot[r]-1] = append(groups[slot[r]-1], i)
	}
	return groups
}

// refMinCuts is the map-based minimal cut search the mask code replaced:
// every subset of EVars, by increasing size, kept when no smaller cut is
// inside it and its removal leaves groups accepted by ok.
func refMinCuts(q *Query, ok func(groups [][]int) bool) []VarSet {
	if groups := refGroups(q, nil); len(groups) != 1 {
		if ok(groups) {
			return []VarSet{{}}
		}
		return nil
	}
	evars := q.EVars()
	n := len(evars)
	var cuts []VarSet
	for size := 0; size <= n; size++ {
	next:
		for mask := uint64(0); mask < 1<<uint(n); mask++ {
			if bits.OnesCount64(mask) != size {
				continue
			}
			set := VarSet{}
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					set.Add(evars[i])
				}
			}
			for _, c := range cuts {
				if c.SubsetOf(set) {
					continue next
				}
			}
			if ok(refGroups(q, set)) {
				cuts = append(cuts, set)
			}
		}
	}
	return cuts
}

// sameCuts reports whether two cut lists hold the same sets.
func sameCuts(a, b []VarSet) bool {
	as, bs := map[string]bool{}, map[string]bool{}
	for _, c := range a {
		as[c.String()] = true
	}
	for _, c := range b {
		bs[c.String()] = true
	}
	if len(as) != len(a) || len(bs) != len(b) || len(as) != len(bs) {
		return false
	}
	for k := range as {
		if !bs[k] {
			return false
		}
	}
	return true
}

// FuzzAnalyses runs the structural analyses on every parseable input:
// none of them may panic, and basic coherence must hold. Components,
// connectivity, MinCuts and MinPCuts must agree with the map-based
// reference above, and minimal cuts are also checked against their
// definition: a cut-set promoted to the head disconnects the query, and
// no smaller set that drops one of its variables does.
func FuzzAnalyses(f *testing.F) {
	f.Add("q(z) :- R(z, x), S(x, y), T(y)")
	f.Add("q() :- A(x), B(y), M(x, y)")
	f.Add("q() :- R(x, x)")
	f.Add("q(z) :- R(z, 'c', x), S(x, y), T(y, u), y <= 3")
	f.Add("q(x0, x4) :- R1(x0, x1), R2(x1, x2), R3(x2, x3), R4(x3, x4)")
	f.Add("q() :- R1('a', x1), R2(x2), R3(x3), R0(x1, x2, x3)")
	f.Add("q() :- R(x, z), S(y, u), T(z), U(u), M(x, y, z, u)")
	f.Add("q(a) :- S(s, a), PS(s, u), P(u, n), D(n)")
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil || q.CheckWidth() != nil {
			return
		}
		comps := q.Components()
		groups := refGroups(q, nil)
		if len(comps) != len(groups) {
			t.Fatalf("%d components, reference has %d", len(comps), len(groups))
		}
		for i, g := range groups {
			if len(comps[i].Atoms) != len(g) {
				t.Fatalf("component %d has %d atoms, reference %d", i, len(comps[i].Atoms), len(g))
			}
			for j, ai := range g {
				if comps[i].Atoms[j].Rel != q.Atoms[ai].Rel {
					t.Fatalf("component %d atom %d is %s, reference %s", i, j, comps[i].Atoms[j].Rel, q.Atoms[ai].Rel)
				}
			}
		}
		if len(comps) < 1 {
			t.Fatal("no components")
		}
		total := 0
		for _, c := range comps {
			total += len(c.Atoms)
		}
		if total != len(q.Atoms) {
			t.Fatalf("components lost atoms: %d vs %d", total, len(q.Atoms))
		}
		if isConnected(q) != (len(comps) == 1) {
			t.Fatalf("isConnected = %v with %d components", isConnected(q), len(comps))
		}
		parts := func(y VarSet) int {
			return len(q.WithHead(append(append([]Var(nil), q.Head...), y.Sorted()...)).Components())
		}
		if len(q.EVars()) <= 12 {
			if got, want := q.MinCuts(), refMinCuts(q, func(g [][]int) bool { return len(g) >= 2 }); !sameCuts(got, want) {
				t.Fatalf("MinCuts = %v, reference %v", got, want)
			}
			// Relations with an odd-length name count as probabilistic.
			isProb := func(rel string) bool { return len(rel)%2 == 1 }
			refP := refMinCuts(q, func(groups [][]int) bool {
				n := 0
				for _, g := range groups {
					for _, i := range g {
						if isProb(q.Atoms[i].Rel) {
							n++
							break
						}
					}
				}
				return n >= 2
			})
			if got := q.MinPCuts(isProb); !sameCuts(got, refP) {
				t.Fatalf("MinPCuts = %v, reference %v", got, refP)
			}
			for _, y := range q.MinCuts() {
				if !y.SubsetOf(NewVarSet(q.EVars()...)) {
					t.Fatalf("cut %v uses non-existential variables", y)
				}
				if n := parts(y); n < 2 {
					t.Fatalf("cut %v leaves %d component(s)", y, n)
				}
				for v := range y {
					if n := parts(y.Minus(NewVarSet(v))); n >= 2 {
						t.Fatalf("cut %v is not minimal: without %s it leaves %d components", y, v, n)
					}
				}
			}
		}
		_ = q.IsHierarchical()
		_ = q.SeparatorVars()
	})
}

// isConnected reports whether q (ignoring head variables) forms a
// single connected component.
func isConnected(q *Query) bool {
	b := NewBits(q)
	return len(q.Atoms) > 0 && b.component(b.AllAtoms(), b.VarMask(q.Head)) == b.AllAtoms()
}
