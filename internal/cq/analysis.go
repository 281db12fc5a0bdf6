package cq

// IsHierarchical reports whether the query is hierarchical (Definition 1):
// for any two existential variables x, y, the sets of atoms containing them
// are nested or disjoint. Head variables are ignored — the test treats them
// as constants, which matches the evaluation of non-Boolean queries.
func (q *Query) IsHierarchical() bool {
	evars := q.EVars()
	// atomsOf[x] is the set of atom indices containing x.
	atomsOf := make(map[Var]map[int]bool, len(evars))
	for _, x := range evars {
		atomsOf[x] = map[int]bool{}
	}
	head := q.HeadSet()
	for i, a := range q.Atoms {
		for _, v := range a.Vars() {
			if !head.Has(v) {
				atomsOf[v][i] = true
			}
		}
	}
	for i := 0; i < len(evars); i++ {
		for j := i + 1; j < len(evars); j++ {
			ax, ay := atomsOf[evars[i]], atomsOf[evars[j]]
			if !nestedOrDisjoint(ax, ay) {
				return false
			}
		}
	}
	return true
}

func nestedOrDisjoint(a, b map[int]bool) bool {
	common, aOnly, bOnly := false, false, false
	for i := range a {
		if b[i] {
			common = true
		} else {
			aOnly = true
		}
	}
	for i := range b {
		if !a[i] {
			bOnly = true
		}
	}
	return !common || !aOnly || !bOnly
}

// SeparatorVars returns the separator (root) variables of the query: the
// existential variables that occur in every atom.
func (q *Query) SeparatorVars() VarSet {
	out := VarSet{}
	head := q.HeadSet()
	for _, v := range q.Vars() {
		if head.Has(v) {
			continue
		}
		in := true
		for _, a := range q.Atoms {
			if !a.HasVar(v) {
				in = false
				break
			}
		}
		if in {
			out.Add(v)
		}
	}
	return out
}

// atomGroups partitions the atom indices into connected components: two
// atoms are connected when they share a variable that is neither a head
// variable nor in extra, so head and extra variables act as constants.
// Each group holds ascending indices, and groups are ordered by their
// first atom.
func (q *Query) atomGroups(extra VarSet) [][]int {
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

// Components partitions the query's atoms into connected components, where
// two atoms are connected when they share an existential variable. Head
// variables act as constants and never connect atoms. Each component is
// returned as a query whose head is the subset of q's head variables that
// occur in it; predicates follow their variable. Components are ordered by
// the first atom position, so the result is deterministic.
func (q *Query) Components() []*Query {
	groups := q.atomGroups(nil)
	out := make([]*Query, 0, len(groups))
	for _, g := range groups {
		sub := &Query{Name: q.Name}
		vars := VarSet{}
		for _, i := range g {
			sub.Atoms = append(sub.Atoms, q.Atoms[i])
			for _, v := range q.Atoms[i].Vars() {
				vars.Add(v)
			}
		}
		for _, h := range q.Head {
			if vars.Has(h) {
				sub.Head = append(sub.Head, h)
			}
		}
		for _, p := range q.Preds {
			if vars.Has(p.Var) {
				sub.Preds = append(sub.Preds, p)
			}
		}
		out = append(out, sub)
	}
	return out
}

// IsConnected reports whether the query (ignoring head variables) forms a
// single connected component.
func (q *Query) IsConnected() bool { return len(q.atomGroups(nil)) == 1 }

// WithHead returns a copy of q whose head variables are replaced by hs.
func (q *Query) WithHead(hs []Var) *Query {
	c := q.Clone()
	c.Head = append([]Var(nil), hs...)
	return c
}

// MinCuts enumerates the minimal cut-sets of the query (Section 3.2): the
// minimal sets y of existential variables such that removing y disconnects
// the query. For a disconnected query it returns {∅}. Every cut-set must
// contain all separator variables, so the search enumerates subsets of
// EVars that include SeparatorVars, in increasing size, keeping only sets
// with no proper cut subset.
func (q *Query) MinCuts() []VarSet {
	return q.minCuts(func(groups [][]int) bool { return len(groups) >= 2 })
}

// MinPCuts is the deterministic-relations variant of MinCuts (Section
// 3.3.1): it keeps only cut-sets that split the query into at least two
// components containing *probabilistic* atoms, where isProb reports whether
// a relation symbol is probabilistic.
func (q *Query) MinPCuts(isProb func(rel string) bool) []VarSet {
	return q.minCuts(func(groups [][]int) bool {
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
}

// minCuts enumerates minimal variable sets whose removal splits q into
// atom groups accepted by ok. Removing a set y is the paper's q - y: its
// variables become constants, which atomGroups(y) reads without copying q.
func (q *Query) minCuts(ok func(groups [][]int) bool) []VarSet {
	if groups := q.atomGroups(nil); len(groups) != 1 {
		if ok(groups) {
			return []VarSet{{}}
		}
		return nil
	}
	evars := q.EVars()
	var cuts []VarSet

	// Enumerate subsets in increasing cardinality so minimality filtering
	// only needs to look at already-found cuts.
	n := len(evars)
	subsetsBySize := make([][]uint64, n+1)
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		c := popcount(mask)
		subsetsBySize[c] = append(subsetsBySize[c], mask)
	}
	for size := 0; size <= n; size++ {
		for _, mask := range subsetsBySize[size] {
			set := VarSet{}
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					set.Add(evars[i])
				}
			}
			if containsAny(cuts, set) {
				continue // a subset is already a cut: not minimal
			}
			if ok(q.atomGroups(set)) {
				cuts = append(cuts, set)
			}
		}
	}
	return cuts
}

func containsAny(cuts []VarSet, set VarSet) bool {
	for _, c := range cuts {
		if c.SubsetOf(set) {
			return true
		}
	}
	return false
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// FD is a functional dependency over query variables, written src → dst.
// FDs arise from schema keys: a key constraint on relation R(x, y) with key
// x contributes the FD {x} → y for every non-key variable y.
type FD struct {
	Src []Var
	Dst Var
}

// Closure computes the closure x⁺ of the variable set x under the given
// FDs.
func Closure(x VarSet, fds []FD) VarSet {
	out := x.Clone()
	for changed := true; changed; {
		changed = false
		for _, fd := range fds {
			if out.Has(fd.Dst) {
				continue
			}
			all := true
			for _, s := range fd.Src {
				if !out.Has(s) {
					all = false
					break
				}
			}
			if all {
				out.Add(fd.Dst)
				changed = true
			}
		}
	}
	return out
}

// KeyFDs derives the FDs contributed by a key declaration on an atom: for
// atom a with key positions keyPos (indices into a.Args), each non-key
// variable of a is functionally determined by the key variables.
func KeyFDs(a Atom, keyPos []int) []FD {
	var src []Var
	for _, i := range keyPos {
		if a.Args[i].IsVar() {
			src = append(src, a.Args[i].Var)
		}
	}
	inKey := NewVarSet(src...)
	var out []FD
	for _, v := range a.Vars() {
		if !inKey.Has(v) {
			out = append(out, FD{Src: src, Dst: v})
		}
	}
	return out
}
