// Package core implements the paper's primary contribution: the
// enumeration of all minimal query plans of a self-join-free conjunctive
// query (Algorithm 1, "MP"), its generalizations for schema knowledge —
// deterministic relations (Section 3.3.1) and functional dependencies
// (Section 3.3.2) — and the single merged plan of Optimization 1
// (Algorithm 2, "SP").
//
// Every plan returned for a query q computes, under the extensional score
// semantics of internal/engine, an upper bound on P(q) (Corollary 19); the
// minimum over the minimal plans is the propagation score ρ(q)
// (Definition 14). If q is safe, exactly one plan is returned and its
// score is the exact probability (conservativity, Proposition 6).
package core

import (
	"math/big"
	"math/bits"
	"sort"

	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

// Schema carries the schema knowledge the algorithms exploit for a given
// query: which relations are deterministic, and the functional
// dependencies over the query's variables (typically instantiated from
// relation keys via cq.KeyFDs).
type Schema struct {
	// Det holds the relation symbols whose tuples all have probability 1.
	Det map[string]bool
	// FDs are functional dependencies over the query's variables.
	FDs []cq.FD
}

// IsProb reports whether relation rel is probabilistic under the schema.
func (s *Schema) IsProb(rel string) bool {
	return s == nil || !s.Det[rel]
}

// HasKnowledge reports whether the schema carries any information that
// changes plan enumeration.
func (s *Schema) HasKnowledge() bool {
	return s != nil && (len(s.Det) > 0 || len(s.FDs) > 0)
}

// Closure returns the FD closure of the given variable set.
func (s *Schema) Closure(x cq.VarSet) cq.VarSet {
	if s == nil {
		return x.Clone()
	}
	return cq.Closure(x, s.FDs)
}

// Chase computes the dissociation chase ∆Γ of Section 3.3.2 ("full chase"
// of Olteanu et al.): every atom Ri(xi) is dissociated on x i⁺ \ xi, where
// the closure is taken under the schema FDs restricted to the query's
// variables. Dissociating on these variables never changes the probability
// (Lemma 25), so plan enumeration may run on the chased query. The
// returned dissociation is empty when the schema has no FDs.
func Chase(q *cq.Query, sch *Schema) plan.Dissociation {
	d := plan.NewDissociation()
	if sch == nil || len(sch.FDs) == 0 {
		return d
	}
	qvars := cq.NewVarSet(q.Vars()...)
	for _, a := range q.Atoms {
		own := cq.NewVarSet(a.Vars()...)
		cl := sch.Closure(own).Intersect(qvars)
		for v := range cl.Minus(own) {
			d.Add(a.Rel, v)
		}
	}
	return d
}

// MinimalPlans runs Algorithm 1 with the schema modifications of Theorems
// 24 and 27 and returns all minimal query plans of q. With a nil or empty
// schema this is plain Algorithm 1 (Theorem 20). The returned plans are
// over q's original atoms (chase variables are stripped back out) and are
// deduplicated, in the order of their keys.
func MinimalPlans(q *cq.Query, sch *Schema) []plan.Node {
	return newEnumerator(q, sch).minimalPlans()
}

// Plans runs Algorithms 1 and 2 as one enumeration and returns what
// MinimalPlans and SinglePlan return. The two share one interning table,
// so a subplan both build is one node, and one cache of each
// sub-query's components and cuts.
func Plans(q *cq.Query, sch *Schema) (minimal []plan.Node, single plan.Node) {
	e := newEnumerator(q, sch)
	return e.minimalPlans(), e.singlePlan()
}

// reduceMinimal keeps one plan per ⪯p′ equivalence class and drops plans
// whose class strictly dominates another (Sections 3.3.1–3.3.2): two plans
// whose dissociations differ only on deterministic relations or on
// FD-implied variables have the same probability, so a single
// representative suffices; a plan whose reduced dissociation is a strict
// superset of another's is never the minimum. Among equivalent plans the
// one with the larger full dissociation is kept — the paper prefers the
// top plan of each class because it least constrains the join order.
func reduceMinimal(q *cq.Query, sch *Schema, plans []plan.Node) []plan.Node {
	if !sch.HasKnowledge() || len(plans) <= 1 {
		return plans
	}
	qvars := cq.NewVarSet(q.Vars()...)
	closure := func(rel string) cq.VarSet {
		a := q.Atom(rel)
		return sch.Closure(cq.NewVarSet(a.Vars()...)).Intersect(qvars)
	}
	type entry struct {
		p       plan.Node
		d       plan.Dissociation
		reduced map[string]cq.VarSet // prob relations only, closure removed
		size    int                  // total extra vars of the full dissociation
	}
	entries := make([]entry, 0, len(plans))
	for _, p := range plans {
		d := plan.DeltaOf(q, p)
		red := map[string]cq.VarSet{}
		size := 0
		for rel, extra := range d.Extra {
			size += extra.Len()
			if sch.IsProb(rel) {
				if r := extra.Minus(closure(rel)); r.Len() > 0 {
					red[rel] = r
				}
			}
		}
		entries = append(entries, entry{p, d, red, size})
	}
	le := func(a, b map[string]cq.VarSet) bool {
		for rel, s := range a {
			if !s.SubsetOf(b[rel]) {
				return false
			}
		}
		return true
	}
	var keep []plan.Node
	for i, e := range entries {
		drop := false
		for j, o := range entries {
			if i == j {
				continue
			}
			if le(o.reduced, e.reduced) {
				if !le(e.reduced, o.reduced) {
					drop = true // strictly dominated
					break
				}
				// Equivalent class: keep the larger dissociation; tie-break
				// on plan key for determinism.
				if o.size > e.size || (o.size == e.size && j < i) {
					drop = true
					break
				}
			}
		}
		if !drop {
			keep = append(keep, e.p)
		}
	}
	return keep
}

// SinglePlan runs Algorithm 2 (Optimization 1): the minimal plans merged
// into one plan with the min operator pushed down to the cut branches. Its
// score equals the per-answer minimum of the minimal plans' scores, i.e.
// the propagation score ρ(q). The result is a DAG with one node per
// distinct subplan: Algorithm 2 memoises on the sub-query and builds
// through an interning table, and Strip keeps that sharing, so a subplan
// reached from several cut branches is one node, however often the tree
// the DAG unfolds to repeats it.
func SinglePlan(q *cq.Query, sch *Schema) plan.Node {
	return newEnumerator(q, sch).singlePlan()
}

// enumerator runs Algorithms 1 and 2 over the chased query. A sub-query
// the recursion reaches is a pair of masks over it (cq.Bits): its atoms,
// and its head variables, which act as constants. The memos are keyed by
// that pair, so a sub-query reached with its head variables added in
// another order is still enumerated once.
type enumerator struct {
	q      *cq.Query // the query plans are returned over
	sch    *Schema
	bits   *cq.Bits // numbers the chased query
	tab    *plan.Table
	prob   uint64 // the probabilistic atoms: every atom unless DRs are declared
	shapes map[sub]*shape
	mpMemo map[sub][]plan.Node
	spMemo map[sub]plan.Node
}

// sub is a sub-query of the chased query: an atom mask and a head mask
// holding only variables of those atoms.
type sub struct{ atoms, head uint64 }

// shape is what both algorithms branch on for one sub-query: its
// components and, when there is only one, its cuts.
type shape struct {
	comps []uint64
	cuts  []uint64
}

func newEnumerator(q *cq.Query, sch *Schema) *enumerator {
	chased := Chase(q, sch).Apply(q)
	e := &enumerator{
		q:      q,
		sch:    sch,
		bits:   cq.NewBits(chased),
		tab:    plan.NewTable(),
		shapes: map[sub]*shape{},
		mpMemo: map[sub][]plan.Node{},
		spMemo: map[sub]plan.Node{},
	}
	for i, a := range chased.Atoms {
		if sch.IsProb(a.Rel) {
			e.prob |= 1 << i
		}
	}
	return e
}

// root is the whole chased query.
func (e *enumerator) root() sub {
	return e.sub(e.bits.AllAtoms(), e.bits.VarMask(e.bits.Query().Head))
}

// sub returns the sub-query of the given atoms, with the head variables
// among theirs.
func (e *enumerator) sub(atoms, head uint64) sub {
	return sub{atoms, head & e.bits.VarsOf(atoms)}
}

func (e *enumerator) minimalPlans() []plan.Node {
	var out []plan.Node
	for _, p := range e.mp(e.root()) {
		out = append(out, e.tab.Strip(e.q, p))
	}
	out = dedupe(out)
	plan.SortByKey(out)
	return reduceMinimal(e.q, e.sch, out)
}

func (e *enumerator) singlePlan() plan.Node {
	return e.tab.Strip(e.q, e.sp(e.root()))
}

// shape returns the sub-query's components and cuts, computing them on
// the first call.
func (e *enumerator) shape(s sub) *shape {
	if sh, ok := e.shapes[s]; ok {
		return sh
	}
	sh := &shape{comps: e.bits.Components(s.atoms, s.head)}
	if len(sh.comps) == 1 {
		// MinCuts without schema knowledge; MinPCuts, cuts that separate
		// at least two probabilistic components, under DRs.
		sh.cuts = e.bits.MinCuts(s.atoms, s.head, e.prob)
	}
	e.shapes[s] = sh
	return sh
}

// exactStopPlan is the stopping rule of the DR modification (Section
// 3.3.1): a (sub)query with at most one probabilistic relation is safe, so
// a single exact plan suffices. The plan is the safe plan of the
// dissociation that dissociates every deterministic relation on all
// missing variables — a dissociation that is ≡p to the empty one (Lemma
// 22) and always safe when at most one atom is probabilistic. For the
// all-deterministic case this degenerates to the paper's join-everything-
// then-project plan.
func (e *enumerator) exactStopPlan(q *cq.Query) plan.Node {
	d := plan.NewDissociation()
	all := cq.NewVarSet(q.Vars()...)
	for _, a := range q.Atoms {
		if !e.sch.IsProb(a.Rel) {
			for v := range all.Minus(cq.NewVarSet(a.Vars()...)) {
				d.Add(a.Rel, v)
			}
		}
	}
	p, err := e.tab.PlanOf(q, d)
	if err != nil {
		panic("core: exact stop dissociation is not safe: " + err.Error())
	}
	return p
}

// stopPlan returns the one plan of a sub-query the stopping rule ends the
// recursion at — a single atom, or (DR) at most one probabilistic atom —
// and false when the rule does not apply.
func (e *enumerator) stopPlan(s sub) (plan.Node, bool) {
	switch {
	case bits.OnesCount64(s.atoms) == 1:
		q := e.bits.Query()
		a := q.Atoms[bits.TrailingZeros64(s.atoms)]
		return e.tab.NewProject(e.bits.VarList(s.head), e.tab.NewScan(a, q.PredsOnAtom(a))), true
	case bits.OnesCount64(s.atoms&e.prob) <= 1:
		return e.exactStopPlan(e.bits.Sub(s.atoms, s.head)), true
	}
	return nil, false
}

// mp is Algorithm 1 (EnumerateMinimalPlans), memoized on the sub-query.
// Its plans are distinct but in no particular order.
func (e *enumerator) mp(s sub) []plan.Node {
	if ps, ok := e.mpMemo[s]; ok {
		return ps
	}
	var out []plan.Node
	if p, ok := e.stopPlan(s); ok {
		out = []plan.Node{p}
	} else if head, sh := e.bits.VarList(s.head), e.shape(s); len(sh.comps) > 1 {
		alts := make([][]plan.Node, len(sh.comps))
		for i, c := range sh.comps {
			alts[i] = e.mp(e.sub(c, s.head))
		}
		forEachCombination(alts, func(subs []plan.Node) {
			out = append(out, e.tab.NewProject(head, e.tab.NewJoin(subs...)))
		})
	} else {
		for _, y := range sh.cuts {
			for _, p := range e.mp(sub{s.atoms, s.head | y}) {
				out = append(out, e.tab.NewProject(head, p))
			}
		}
	}
	out = dedupe(out)
	e.mpMemo[s] = out
	return out
}

// sp is Algorithm 2 (SinglePlan): the same recursion as mp, but the
// branching over cut-sets becomes a min operator, yielding one plan.
func (e *enumerator) sp(s sub) plan.Node {
	if p, ok := e.spMemo[s]; ok {
		return p
	}
	out, ok := e.stopPlan(s)
	if !ok {
		head, sh := e.bits.VarList(s.head), e.shape(s)
		if len(sh.comps) > 1 {
			subs := make([]plan.Node, len(sh.comps))
			for i, c := range sh.comps {
				subs[i] = e.sp(e.sub(c, s.head))
			}
			out = e.tab.NewProject(head, e.tab.NewJoin(subs...))
		} else {
			alts := make([]plan.Node, len(sh.cuts))
			for i, y := range sh.cuts {
				alts[i] = e.tab.NewProject(head, e.sp(sub{s.atoms, s.head | y}))
			}
			out = e.tab.NewMin(alts...)
		}
	}
	e.spMemo[s] = out
	return out
}

// AllPlans enumerates the plan space of q that the paper counts in the #P
// column of Figure 2 (k! → A000670 for stars, Catalan → A001003 for
// chains): at every level the top projection removes any variable set
// whose removal disconnects the query, and the join below it takes the
// resulting connected components — the finest partition. Schema knowledge
// does not apply: this is the raw plan space used for counting and
// validation.
//
// Note a subtlety of the paper: this recursion undercounts the plans of
// safe dissociations whose joins merge several components under one child
// (e.g. plan 5 of Figure 1b). SafeDissociationPlans enumerates that larger
// space — one plan per reachable safe dissociation — and matches Figure
// 1b; AllPlans matches the Figure 2 sequence counts.
func AllPlans(q *cq.Query) []plan.Node { return allPlans(q, false) }

// SafeDissociationPlans enumerates one query plan per safe dissociation of
// q reachable by a plan (Theorem 18, Figure 1b): in addition to the
// AllPlans recursion, the join below each projection may group the
// connected components arbitrarily — merging components corresponds to
// dissociating their atoms on shared variables. Exponential in the query
// size; intended for small queries in tests and validation.
func SafeDissociationPlans(q *cq.Query) []plan.Node { return allPlans(q, true) }

// allPlans runs the AllPlans recursion, or with merge the
// SafeDissociationPlans one, over sub-queries as masks, like Algorithm 1,
// and returns the plans in the order of their keys.
func allPlans(q *cq.Query, merge bool) []plan.Node {
	b := cq.NewBits(q)
	e := &allEnumerator{bits: b, tab: plan.NewTable(), merge: merge, memo: map[sub][]plan.Node{}}
	out := append([]plan.Node(nil), e.all(sub{b.AllAtoms(), b.VarMask(q.Head)})...)
	plan.SortByKey(out)
	return out
}

type allEnumerator struct {
	bits  *cq.Bits
	tab   *plan.Table
	merge bool // group components arbitrarily (SafeDissociationPlans)
	memo  map[sub][]plan.Node
}

func (e *allEnumerator) all(s sub) []plan.Node {
	if ps, ok := e.memo[s]; ok {
		return ps
	}
	var out []plan.Node
	head := e.bits.VarList(s.head)
	if bits.OnesCount64(s.atoms) == 1 {
		q := e.bits.Query()
		a := q.Atoms[bits.TrailingZeros64(s.atoms)]
		out = []plan.Node{e.tab.NewProject(head, e.tab.NewScan(a, q.PredsOnAtom(a)))}
		e.memo[s] = out
		return out
	}
	evars := e.bits.VarsOf(s.atoms) &^ s.head
	for y := evars; ; y = (y - 1) & evars { // every subset of evars
		consts := s.head | y
		if comps := e.bits.Components(s.atoms, consts); len(comps) >= 2 {
			expand := func(groups [][]int) {
				alts := make([][]plan.Node, len(groups))
				for gi, g := range groups {
					var atoms uint64
					for _, ci := range g {
						atoms |= comps[ci]
					}
					alts[gi] = e.all(sub{atoms, consts & e.bits.VarsOf(atoms)})
				}
				forEachCombination(alts, func(subs []plan.Node) {
					out = append(out, e.tab.NewProject(head, e.tab.NewJoin(subs...)))
				})
			}
			if e.merge {
				forEachPartition(len(comps), expand)
			} else {
				finest := make([][]int, len(comps))
				for i := range comps {
					finest[i] = []int{i}
				}
				expand(finest)
			}
		}
		if y == 0 {
			break
		}
	}
	out = dedupe(out)
	e.memo[s] = out
	return out
}

// forEachPartition calls fn with every partition of {0, ..., n-1} into at
// least two groups. Groups and their contents are in canonical order
// (each group holds ascending indices; groups ordered by first element).
func forEachPartition(n int, fn func(groups [][]int)) {
	var groups [][]int
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if len(groups) >= 2 {
				fn(groups)
			}
			return
		}
		for gi := range groups {
			groups[gi] = append(groups[gi], i)
			rec(i + 1)
			groups[gi] = groups[gi][:len(groups[gi])-1]
		}
		groups = append(groups, []int{i})
		rec(i + 1)
		groups = groups[:len(groups)-1]
	}
	rec(0)
}

// CountDissociations returns the total number of dissociations of q,
// 2^K with K = Σi |EVar(q) \ Var(gi)| — the #∆ column of Figure 2.
func CountDissociations(q *cq.Query) *big.Int {
	evars := cq.NewVarSet(q.EVars()...)
	k := 0
	for _, a := range q.Atoms {
		k += evars.Minus(cq.NewVarSet(a.Vars()...)).Len()
	}
	return new(big.Int).Lsh(big.NewInt(1), uint(k))
}

// Dissociations enumerates every dissociation of q over its existential
// variables, in lattice order (smaller dissociations first). Exponential;
// intended for small queries in tests and validation.
func Dissociations(q *cq.Query) []plan.Dissociation {
	evars := cq.NewVarSet(q.EVars()...)
	type slot struct {
		rel string
		v   cq.Var
	}
	var slots []slot
	for _, a := range q.Atoms {
		for _, v := range evars.Minus(cq.NewVarSet(a.Vars()...)).Sorted() {
			slots = append(slots, slot{a.Rel, v})
		}
	}
	n := len(slots)
	if n > 24 {
		panic("core: dissociation lattice too large to enumerate")
	}
	masks := make([]uint64, 0, 1<<uint(n))
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		masks = append(masks, mask)
	}
	sort.Slice(masks, func(i, j int) bool {
		pi, pj := bits.OnesCount64(masks[i]), bits.OnesCount64(masks[j])
		if pi != pj {
			return pi < pj
		}
		return masks[i] < masks[j]
	})
	out := make([]plan.Dissociation, 0, len(masks))
	for _, mask := range masks {
		d := plan.NewDissociation()
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				d.Add(slots[i].rel, slots[i].v)
			}
		}
		out = append(out, d)
	}
	return out
}

// MinimalSafeDissociations enumerates the full dissociation lattice of q
// and returns the minimal safe dissociations under the plain partial order
// ⪯ (Definition 15). Exponential; used to cross-validate MinimalPlans on
// small queries (Theorem 20: the minimal plans are exactly the plans of
// these dissociations).
func MinimalSafeDissociations(q *cq.Query) []plan.Dissociation {
	var minimal []plan.Dissociation
	for _, d := range Dissociations(q) {
		if !d.IsSafeFor(q) {
			continue
		}
		dominated := false
		for _, m := range minimal {
			if m.LE(d) {
				dominated = true
				break
			}
		}
		if !dominated {
			minimal = append(minimal, d)
		}
	}
	return minimal
}

// IsSafe reports whether q is safe given the schema knowledge: per
// Corollary 28, q is safe iff the chased query, further dissociated on
// deterministic relations only, can be made hierarchical — equivalently,
// iff the modified Algorithm 1 returns a single plan that is ≡p′ to the
// empty dissociation. The implementation uses the algorithmic
// characterization directly: MinimalPlans returns one plan and that plan's
// dissociation only dissociates deterministic relations or chase
// variables.
func IsSafe(q *cq.Query, sch *Schema) bool {
	return SafeGiven(q, sch, MinimalPlans(q, sch))
}

// SafeGiven is IsSafe for a caller that already holds MinimalPlans(q,
// sch): it runs the safety test on those plans instead of enumerating
// them a second time.
func SafeGiven(q *cq.Query, sch *Schema, plans []plan.Node) bool {
	if len(plans) != 1 {
		return false
	}
	d := plan.DeltaOf(q, plans[0])
	chase := Chase(q, sch)
	qvars := cq.NewVarSet(q.Vars()...)
	for rel, extra := range d.Extra {
		if !sch.IsProb(rel) {
			continue
		}
		a := q.Atom(rel)
		cl := sch.Closure(cq.NewVarSet(a.Vars()...)).Intersect(qvars)
		cl = cl.Union(chase.ExtraOf(rel))
		if extra.Minus(cl).Len() > 0 {
			return false
		}
	}
	return true
}

// dedupe drops the plans whose id an earlier plan has, keeping order.
func dedupe(ps []plan.Node) []plan.Node {
	seen := make(map[plan.ID]bool, len(ps))
	out := ps[:0:0]
	for _, p := range ps {
		if !seen[p.ID()] {
			seen[p.ID()] = true
			out = append(out, p)
		}
	}
	return out
}

// forEachCombination calls fn with every element of the cartesian product
// of alts. The callback's slice is reused across calls.
func forEachCombination(alts [][]plan.Node, fn func([]plan.Node)) {
	pick := make([]plan.Node, len(alts))
	var rec func(int)
	rec = func(i int) {
		if i == len(alts) {
			fn(pick)
			return
		}
		for _, p := range alts[i] {
			pick[i] = p
			rec(i + 1)
		}
	}
	rec(0)
}
