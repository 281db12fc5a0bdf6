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

// EmptySchema returns a schema with no knowledge: every relation is
// probabilistic and no FDs hold.
func EmptySchema() *Schema { return &Schema{} }

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
// deduplicated, in deterministic order.
func MinimalPlans(q *cq.Query, sch *Schema) []plan.Node {
	chased := Chase(q, sch).Apply(q)
	e := &enumerator{sch: sch, memo: map[string][]plan.Node{}}
	raw := e.mp(chased)
	return reduceMinimal(q, sch, stripAll(q, raw))
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
// the propagation score ρ(q). The result is a DAG whose shared subplans
// are one node: Algorithm 2 memoises on the sub-query and Strip keeps that
// sharing, so a sub-query reached from several cut branches is built once,
// however often the tree the DAG unfolds to repeats it.
func SinglePlan(q *cq.Query, sch *Schema) plan.Node {
	chased := Chase(q, sch).Apply(q)
	e := &enumerator{sch: sch, memo: map[string][]plan.Node{}, spMemo: map[string]plan.Node{}}
	return plan.Strip(q, e.sp(chased))
}

type enumerator struct {
	sch    *Schema
	memo   map[string][]plan.Node
	spMemo map[string]plan.Node
}

// countProb returns the number of probabilistic atoms in q.
func (e *enumerator) countProb(q *cq.Query) int {
	n := 0
	for _, a := range q.Atoms {
		if e.sch.IsProb(a.Rel) {
			n++
		}
	}
	return n
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
	p, err := plan.PlanOf(q, d)
	if err != nil {
		panic("core: exact stop dissociation is not safe: " + err.Error())
	}
	return p
}

// cuts returns the cut-sets Algorithm 1 branches on: MinCuts without
// schema knowledge, MinPCuts (cuts that separate at least two
// probabilistic components) when deterministic relations are declared.
func (e *enumerator) cuts(q *cq.Query) []cq.VarSet {
	if e.sch != nil && len(e.sch.Det) > 0 {
		return q.MinPCuts(e.sch.IsProb)
	}
	return q.MinCuts()
}

// useStop reports whether the DR stopping rule applies to q.
func (e *enumerator) useStop(q *cq.Query) bool {
	if len(q.Atoms) == 1 {
		return true
	}
	return e.sch != nil && len(e.sch.Det) > 0 && e.countProb(q) <= 1
}

// mp is Algorithm 1 (EnumerateMinimalPlans), memoized on the canonical
// query form.
func (e *enumerator) mp(q *cq.Query) []plan.Node {
	key := q.String()
	if ps, ok := e.memo[key]; ok {
		return ps
	}
	var out []plan.Node
	switch {
	case e.useStop(q):
		if len(q.Atoms) == 1 {
			a := q.Atoms[0]
			out = []plan.Node{plan.NewProject(q.Head, plan.NewScan(a, q.PredsOnAtom(a)))}
		} else {
			out = []plan.Node{e.exactStopPlan(q)}
		}
	case !q.IsConnected():
		comps := q.Components()
		alts := make([][]plan.Node, len(comps))
		for i, c := range comps {
			alts[i] = e.mp(c)
		}
		forEachCombination(alts, func(subs []plan.Node) {
			out = append(out, plan.NewProject(q.Head, plan.NewJoin(subs...)))
		})
	default:
		for _, y := range e.cuts(q) {
			qy := q.WithHead(append(append([]cq.Var(nil), q.Head...), y.Sorted()...))
			for _, p := range e.mp(qy) {
				out = append(out, plan.NewProject(q.Head, p))
			}
		}
	}
	out = dedupe(out)
	e.memo[key] = out
	return out
}

// sp is Algorithm 2 (SinglePlan): the same recursion as mp, but the
// branching over cut-sets becomes a min operator, yielding one plan.
func (e *enumerator) sp(q *cq.Query) plan.Node {
	key := q.String()
	if p, ok := e.spMemo[key]; ok {
		return p
	}
	var out plan.Node
	switch {
	case e.useStop(q):
		if len(q.Atoms) == 1 {
			a := q.Atoms[0]
			out = plan.NewProject(q.Head, plan.NewScan(a, q.PredsOnAtom(a)))
		} else {
			out = e.exactStopPlan(q)
		}
	case !q.IsConnected():
		comps := q.Components()
		subs := make([]plan.Node, len(comps))
		for i, c := range comps {
			subs[i] = e.sp(c)
		}
		out = plan.NewProject(q.Head, plan.NewJoin(subs...))
	default:
		var alts []plan.Node
		for _, y := range e.cuts(q) {
			qy := q.WithHead(append(append([]cq.Var(nil), q.Head...), y.Sorted()...))
			alts = append(alts, plan.NewProject(q.Head, e.sp(qy)))
		}
		out = plan.NewMin(alts...)
	}
	e.spMemo[key] = out
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
func AllPlans(q *cq.Query) []plan.Node {
	e := &allEnumerator{memo: map[string][]plan.Node{}}
	return e.all(q, false)
}

// SafeDissociationPlans enumerates one query plan per safe dissociation of
// q reachable by a plan (Theorem 18, Figure 1b): in addition to the
// AllPlans recursion, the join below each projection may group the
// connected components arbitrarily — merging components corresponds to
// dissociating their atoms on shared variables. Exponential in the query
// size; intended for small queries in tests and validation.
func SafeDissociationPlans(q *cq.Query) []plan.Node {
	e := &allEnumerator{memo: map[string][]plan.Node{}}
	return e.all(q, true)
}

type allEnumerator struct {
	memo map[string][]plan.Node
}

func (e *allEnumerator) all(q *cq.Query, mergeComponents bool) []plan.Node {
	key := q.String()
	if ps, ok := e.memo[key]; ok {
		return ps
	}
	var out []plan.Node
	if len(q.Atoms) == 1 {
		a := q.Atoms[0]
		out = []plan.Node{plan.NewProject(q.Head, plan.NewScan(a, q.PredsOnAtom(a)))}
		e.memo[key] = out
		return out
	}
	evars := q.EVars()
	n := len(evars)
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		y := cq.VarSet{}
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				y.Add(evars[i])
			}
		}
		qy := q.WithHead(append(append([]cq.Var(nil), q.Head...), y.Sorted()...))
		comps := qy.Components()
		if len(comps) < 2 {
			continue
		}
		expand := func(groups [][]int) {
			alts := make([][]plan.Node, len(groups))
			for gi, g := range groups {
				sub := &cq.Query{Name: q.Name}
				for _, ci := range g {
					sub.Atoms = append(sub.Atoms, comps[ci].Atoms...)
					sub.Preds = append(sub.Preds, comps[ci].Preds...)
				}
				vars := cq.NewVarSet(sub.Vars()...)
				for _, h := range qy.Head {
					if vars.Has(h) {
						sub.Head = append(sub.Head, h)
					}
				}
				alts[gi] = e.all(sub, mergeComponents)
			}
			forEachCombination(alts, func(subs []plan.Node) {
				out = append(out, plan.NewProject(q.Head, plan.NewJoin(subs...)))
			})
		}
		if mergeComponents {
			forEachPartition(len(comps), expand)
		} else {
			finest := make([][]int, len(comps))
			for i := range comps {
				finest[i] = []int{i}
			}
			expand(finest)
		}
	}
	out = dedupe(out)
	e.memo[key] = out
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
		pi, pj := popcount(masks[i]), popcount(masks[j])
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

func stripAll(q *cq.Query, raw []plan.Node) []plan.Node {
	var out []plan.Node
	for _, p := range raw {
		out = append(out, plan.Strip(q, p))
	}
	return dedupe(out)
}

func dedupe(ps []plan.Node) []plan.Node {
	seen := map[string]bool{}
	var out []plan.Node
	for _, p := range ps {
		if !seen[p.Key()] {
			seen[p.Key()] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
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

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
