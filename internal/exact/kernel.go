package exact

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"lapushdb/internal/lineage"
)

// NodesPerClause is the decomposition-node allowance per lineage clause
// inside which every tractable lineage measured so far finishes (DESIGN.md
// "Anytime bounds" records the measurement). It is the first-pass budget
// of internal/anytime, and the point past which ProbBudget stops once to
// try a read-once factorization before spending the rest of its budget.
const NodesPerClause = 8

// maxRowWords caps the rows one connected component may hold, its
// clauses and every row the walk derives from them (⌈variables/64⌉ words
// each, 32 MiB in all). A component past it is reported as ErrBudget: no
// budget this package is called with could finish a walk over it, and
// laying it out alone would take the memory.
const maxRowWords = 1 << 22

// maxMemoKeys caps the memo's key arena (row ids, 128 MiB). A walk that
// fills it goes on without memoizing further formulas.
const maxMemoKeys = 1 << 25

// A kernel is the one decomposition walk of this package. A lineage is
// split into connected components, each component's variables are
// renumbered to dense local ids (ascending in the global id, so "smallest
// id" means the same in both), and its clauses become rows of w =
// ⌈n/64⌉ words. Rows are interned: one content, one id, stored once. A
// formula is a list of row ids in ascending numeric row order, which
// every step preserves without sorting: dropping rows and splitting into
// components keep the order, and clearing one bit from every row that
// has it keeps the order among those rows, so the conditioned formula is
// a merge of two sorted lists. A set of rows therefore has one spelling,
// and the memo keys on it: the ids stand for the clause words one to one.
// No step iterates a map, so a result is a function of the clause set
// alone.
//
// The walk folds probabilities (Prob) or, with circ set, emits circuit
// nodes over global variable ids (Compile).
type kernel struct {
	probs   []float64
	clauses [][]int32
	opts    SolverOptions
	circ    *Circuit
	budget  int
	// readOnceAt is the remaining budget at which the walk stops once to
	// try a read-once factorization of the whole lineage (-1: never);
	// tree is that factorization when it succeeded.
	readOnceAt int
	tree       *lineage.Tree

	// The lineage in local ids: lits holds every clause's variables back
	// to back, cend[i] the end of clause i; vars is the sorted list of
	// distinct global ids that a local id indexes.
	lits, cend, vars []int32
	// The root split: croot[i] is clause i's component (named by its
	// first clause), vcomp[v] variable v's; order and vorder list clauses
	// and variables component by component; lid[v] is v's place in vorder.
	croot, vcomp, order, vorder, lid, count []int32
	packed                                  []uint64

	// The component being walked.
	w     int
	gvars []int32              // global id of each of the component's variables
	rows  table[uint64, int32] // interned rows; row r is rows.keys[r*w : r*w+w]
	memo  table[int32, res]    // formula (its row ids) → value
	idx   []int32              // stack of row lists and per-node scratch
	owner []int32              // per variable: first row of the node holding it, else -1
	cnt   []int32              // per variable: rows of the node holding it
	mask  []uint64             // union of the node's rows
	tmp   []uint64             // a row being built
}

// res is a node's value: a probability, or a circuit node id.
type res struct {
	p  float64
	id int32
}

var kernels = sync.Pool{New: func() any { return new(kernel) }}

// pooledBytes bounds the scratch a kernel keeps when it returns to the
// pool, so one large lineage does not pin its arena.
const pooledBytes = 8 << 20

func (k *kernel) release() {
	if 8*cap(k.rows.keys)+4*(cap(k.memo.keys)+cap(k.idx)+cap(k.lits))+32*(cap(k.rows.slots)+cap(k.memo.slots)) > pooledBytes {
		*k = kernel{}
	}
	k.probs, k.clauses, k.circ, k.tree = nil, nil, nil, nil
	kernels.Put(k)
}

// run evaluates the lineage within budget nodes. ok is false when the
// budget ran out (or a component exceeded maxRowWords).
func (k *kernel) run(clauses [][]int32, probs []float64, circ *Circuit, budget int, opts SolverOptions) (res, bool) {
	k.probs, k.clauses, k.circ, k.opts, k.budget = probs, clauses, circ, opts, budget
	k.readOnceAt = -1
	if linear := NodesPerClause * len(clauses); !opts.NoReadOnce && budget > linear {
		k.readOnceAt = budget - linear
	}
	r, ok := k.root()
	if k.tree == nil {
		return r, ok
	}
	if circ == nil {
		return res{p: k.tree.Prob(probs)}, true
	}
	circ.nodes = circ.nodes[:0]
	return res{id: circ.fromTree(k.tree)}, true
}

// charge spends one node. It is also where the read-once attempt
// happens: once, after the per-clause allowance is spent and only if the
// caller's budget reaches further — so a budget at or below the allowance
// bounds the whole call, and a factorization (quadratic in the variables)
// is paid for only by a lineage that has already proved not to be easy.
func (k *kernel) charge() bool {
	if k.budget <= 0 {
		return false
	}
	if k.budget == k.readOnceAt && len(k.vars) <= readOnceVarLimit {
		if tree, ok := lineage.Factor(lineage.DNF(k.clauses)); ok {
			k.tree = tree
			return false
		}
	}
	k.budget--
	return true
}

// resize returns s with length n, reallocating when it is too small; the
// contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2)
	}
	return s[:n]
}

func iota32(s []int32) {
	for i := range s {
		s[i] = int32(i)
	}
}

func fill(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}

// groupBy lists the positions of key in out ordered by key, stably: a
// counting sort. Keys index count, which ends holding where each key's
// run ends.
func groupBy(out, key, count []int32) {
	clear(count)
	for _, r := range key {
		count[r]++
	}
	pos := int32(0)
	for r, c := range count {
		count[r], pos = pos, pos+c
	}
	for i, r := range key {
		out[count[r]] = int32(i)
		count[r]++
	}
}

// find is union-find lookup with path halving.
func find(parent []int32, i int32) int32 {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}

// union links the larger root under the smaller, so a component's root is
// its first member and components are met in order of their first member.
func union(parent []int32, a, b int32) {
	ra, rb := find(parent, a), find(parent, b)
	if ra < rb {
		parent[rb] = ra
	} else if rb < ra {
		parent[ra] = rb
	}
}

// root renumbers the lineage, splits it into connected components and
// walks each at its own width, so the arena holds one component at a
// time. The split comes before absorption; where absorbing a clause then
// disconnects a component, the walk splits that component again one node
// later — the one place its node count exceeds the reference solver's.
func (k *kernel) root() (res, bool) {
	k.lits, k.cend = k.lits[:0], k.cend[:0]
	for _, c := range k.clauses {
		if len(c) == 0 { // an empty clause is true and absorbs the rest
			if !k.charge() {
				return res{}, false
			}
			return k.constant(1), true
		}
		k.lits = append(k.lits, c...)
		k.cend = append(k.cend, int32(len(k.lits)))
	}
	// Sort (variable, position) pairs: one pass then numbers the distinct
	// variables in ascending order and rewrites each literal in place.
	k.packed = resize(k.packed, len(k.lits))
	for i, v := range k.lits {
		k.packed[i] = uint64(uint32(v))<<32 | uint64(i)
	}
	slices.Sort(k.packed)
	k.vars = k.vars[:0]
	for _, x := range k.packed {
		if v := int32(x >> 32); len(k.vars) == 0 || k.vars[len(k.vars)-1] != v {
			k.vars = append(k.vars, v)
		}
		k.lits[uint32(x)] = int32(len(k.vars) - 1)
	}
	nc, nv := len(k.cend), len(k.vars)
	if nc == 0 {
		if !k.charge() {
			return res{}, false
		}
		return k.constant(0), true
	}

	k.croot, k.vcomp = resize(k.croot, nc), resize(k.vcomp, nv)
	ncomp := 1
	if k.opts.NoComponents {
		clear(k.croot)
		clear(k.vcomp)
	} else {
		iota32(k.croot)
		fill(k.vcomp, -1)
		start := int32(0)
		for i, end := range k.cend {
			for _, v := range k.lits[start:end] {
				if o := k.vcomp[v]; o < 0 {
					k.vcomp[v] = int32(i)
				} else {
					union(k.croot, int32(i), o)
				}
			}
			start = end
		}
		ncomp = 0
		for i := range k.croot {
			if k.croot[i] = find(k.croot, int32(i)); k.croot[i] == int32(i) {
				ncomp++
			}
		}
		for v, o := range k.vcomp {
			k.vcomp[v] = k.croot[o]
		}
	}
	k.order, k.vorder, k.lid, k.count = resize(k.order, nc), resize(k.vorder, nv), resize(k.lid, nv), resize(k.count, nc)
	groupBy(k.order, k.croot, k.count)
	groupBy(k.vorder, k.vcomp, k.count)
	for pos, v := range k.vorder {
		k.lid[v] = int32(pos)
	}

	if ncomp == 1 {
		return k.component(k.order, 0, nv)
	}
	if !k.charge() {
		return res{}, false
	}
	miss := 1.0
	var kids []int32
	for cs, vs := 0, 0; cs < nc; {
		r := k.croot[k.order[cs]]
		ce, ve := cs, vs
		for ce < nc && k.croot[k.order[ce]] == r {
			ce++
		}
		for ve < nv && k.vcomp[k.vorder[ve]] == r {
			ve++
		}
		child, ok := k.component(k.order[cs:ce], vs, ve)
		if !ok {
			return res{}, false
		}
		miss *= 1 - child.p
		if k.circ != nil {
			kids = append(kids, child.id)
		}
		cs, vs = ce, ve
	}
	return k.indepOr(miss, kids), true
}

// component lays out one connected component — clauses members,
// variables vorder[vs:ve] — as rows, normalizes it and walks it.
func (k *kernel) component(members []int32, vs, ve int) (res, bool) {
	n := ve - vs
	k.w = (n + 63) / 64
	if len(members)*k.w > maxRowWords {
		return res{}, false
	}
	k.gvars = resize(k.gvars, n)
	for i, v := range k.vorder[vs:ve] {
		k.gvars[i] = k.vars[v]
	}
	k.owner, k.cnt, k.mask, k.tmp = resize(k.owner, n), resize(k.cnt, n), resize(k.mask, k.w), resize(k.tmp, k.w)
	fill(k.owner, -1)
	clear(k.cnt)
	clear(k.mask)
	k.rows.reset()
	k.memo.reset()
	k.idx = resize(k.idx, len(members))
	for i, c := range members {
		start := int32(0)
		if c > 0 {
			start = k.cend[c-1]
		}
		clear(k.tmp)
		for _, v := range k.lits[start:k.cend[c]] {
			b := int(k.lid[v]) - vs
			k.tmp[b>>6] |= 1 << (b & 63)
		}
		k.idx[i] = k.intern(k.tmp)
	}
	k.idx = k.normalize(k.idx)
	return k.node(k.idx)
}

// intern returns the id of the row with these words, storing it if new.
func (k *kernel) intern(row []uint64) int32 {
	h := hashKey(row)
	if r, ok := k.rows.get(h, row); ok {
		return r
	}
	r := int32(len(k.rows.keys) / k.w)
	k.rows.put(h, row, r)
	return r
}

func (k *kernel) row(r int32) []uint64 { return k.rows.keys[int(r)*k.w : int(r)*k.w+k.w] }

// cmpRows orders rows as w-word numbers, most significant word last.
func (k *kernel) cmpRows(a, b int32) int {
	ra, rb := k.row(a), k.row(b)
	for j := k.w - 1; j >= 0; j-- {
		if ra[j] != rb[j] {
			return cmp.Compare(ra[j], rb[j])
		}
	}
	return 0
}

// subset reports whether row a's variables are all in row b.
func subset(a, b []uint64) bool {
	for j, x := range a {
		if x&^b[j] != 0 {
			return false
		}
	}
	return true
}

// normalize sorts a component's rows, drops duplicates (equal rows share
// an id) and absorbs: a clause whose variables include another clause's
// is redundant. Only a clause with fewer variables can absorb another, so
// the lineages of self-join-free queries — one variable per atom in
// every clause — skip the quadratic pass.
func (k *kernel) normalize(f []int32) []int32 {
	slices.SortFunc(f, k.cmpRows)
	f = slices.Compact(f)
	pops := k.push(len(f))
	uniform := true
	for i, r := range f {
		n := 0
		for _, x := range k.row(r) {
			n += bits.OnesCount64(x)
		}
		pops[i] = int32(n)
		uniform = uniform && pops[i] == pops[0]
	}
	if !uniform {
		for i, b := range f {
			for j, a := range f {
				// An absorbed a is marked 0 and skipped: what absorbed it
				// absorbs b too.
				if pops[j] > 0 && pops[j] < pops[i] && subset(k.row(a), k.row(b)) {
					pops[i] = 0
					break
				}
			}
		}
		kept := f[:0]
		for i, r := range f {
			if pops[i] > 0 {
				kept = append(kept, r)
			}
		}
		f = kept
	}
	k.idx = k.idx[:len(k.idx)-len(pops)]
	return f
}

// push returns n fresh entries on top of the idx stack. Entries below
// the top are never rewritten, so slices handed out earlier stay valid
// (if idx is reallocated they alias the old array, whose contents match).
func (k *kernel) push(n int) []int32 {
	at := len(k.idx)
	if cap(k.idx) < at+n {
		grown := make([]int32, at, 2*(at+n))
		copy(grown, k.idx)
		k.idx = grown
	}
	k.idx = k.idx[:at+n]
	return k.idx[at : at+n : at+n]
}

// node returns the value of formula f: rows in ascending order, distinct,
// none a subset of another. Every call is one budget node, including the
// leaves and the memo hits, exactly as in the reference solver.
func (k *kernel) node(f []int32) (res, bool) {
	if !k.charge() {
		return res{}, false
	}
	switch len(f) {
	case 0:
		return k.constant(0), true
	case 1:
		return k.clause(k.row(f[0])), true
	}
	var h uint64
	if !k.opts.NoMemo {
		h = hashKey(f)
		if r, ok := k.memo.get(h, f); ok {
			return r, true
		}
	}
	top := len(k.idx)
	r, ok := k.expand(f)
	k.idx = k.idx[:top]
	if ok && !k.opts.NoMemo && len(k.memo.keys)+len(f) <= maxMemoKeys {
		k.memo.put(h, f, r)
	}
	return r, ok
}

// expand decomposes a formula of two or more rows: independent
// components multiply as P(F1 ∨ F2) = 1 − (1 − P(F1))(1 − P(F2));
// a connected formula is Shannon-expanded on its most frequent variable,
// the smallest id among equals.
func (k *kernel) expand(f []int32) (res, bool) {
	n := len(f)
	s := k.push(3 * n)
	parent, size, out := s[:n], s[n:2*n], s[2*n:]
	iota32(parent)
	for i, r := range f {
		for j, x := range k.row(r) {
			k.mask[j] |= x
			for ; x != 0; x &= x - 1 {
				v := j<<6 | bits.TrailingZeros64(x)
				k.cnt[v]++
				if o := k.owner[v]; o < 0 {
					k.owner[v] = int32(i)
				} else {
					union(parent, int32(i), o)
				}
			}
		}
	}
	best, bestN := 0, int32(0)
	for j, x := range k.mask {
		k.mask[j] = 0
		for ; x != 0; x &= x - 1 {
			v := j<<6 | bits.TrailingZeros64(x)
			if k.cnt[v] > bestN {
				best, bestN = v, k.cnt[v]
			}
			k.cnt[v], k.owner[v] = 0, -1
		}
	}

	if !k.opts.NoComponents {
		ncomp := 0
		for i := range parent {
			if parent[i] = find(parent, int32(i)); parent[i] == int32(i) {
				ncomp++
			}
		}
		if ncomp > 1 {
			groupBy(out, parent, size)
			for j, i := range out {
				out[j] = f[i]
			}
			miss := 1.0
			var kids []int32
			start := int32(0)
			for r := range parent {
				if parent[r] != int32(r) {
					continue
				}
				child, ok := k.node(out[start:size[r]])
				if !ok {
					return res{}, false
				}
				miss *= 1 - child.p
				if k.circ != nil {
					kids = append(kids, child.id)
				}
				start = size[r]
			}
			return k.indepOr(miss, kids), true
		}
	}

	// Condition on v. False drops the rows holding v. True clears v from
	// them; a cleared row can absorb only rows that never held v (two
	// cleared rows were distinct and incomparable before), and an empty
	// one makes the formula true.
	vw, vb := best>>6, uint64(1)<<(best&63)
	cleared, rest, merged := parent[:0], size[:0], out[:0]
	tautology := false
	for _, r := range f {
		row := k.row(r)
		if row[vw]&vb == 0 {
			rest = append(rest, r)
			continue
		}
		if len(k.rows.keys)+k.w > maxRowWords {
			return res{}, false
		}
		copy(k.tmp, row)
		k.tmp[vw] &^= vb
		empty := true
		for _, x := range k.tmp {
			empty = empty && x == 0
		}
		nr := k.intern(k.tmp)
		if empty { // only without component splitting: {v} is its own component
			tautology = true
			merged = append(merged[:0], nr)
		}
		cleared = append(cleared, nr)
	}
	if !tautology {
		ci := 0
		for _, r := range rest {
			row := k.row(r)
			absorbed := false
			for _, c := range cleared {
				if subset(k.row(c), row) {
					absorbed = true
					break
				}
			}
			if absorbed {
				continue
			}
			for ci < len(cleared) && k.cmpRows(cleared[ci], r) < 0 {
				merged = append(merged, cleared[ci])
				ci++
			}
			merged = append(merged, r)
		}
		merged = append(merged, cleared[ci:]...)
	}
	hi, ok := k.node(merged)
	if !ok {
		return res{}, false
	}
	lo, ok := k.node(rest)
	if !ok {
		return res{}, false
	}
	return k.shannon(k.gvars[best], hi, lo), true
}

func (k *kernel) constant(v float64) res {
	if k.circ != nil {
		return res{id: k.circ.add(cnode{kind: cConst, val: v})}
	}
	return res{p: v}
}

// clause is the product of one row's variables, ascending.
func (k *kernel) clause(row []uint64) res {
	p := 1.0
	var kids []int32
	for j, x := range row {
		for ; x != 0; x &= x - 1 {
			v := k.gvars[j<<6|bits.TrailingZeros64(x)]
			if k.circ != nil {
				kids = append(kids, k.circ.add(cnode{kind: cVar, v: v}))
			} else {
				p *= k.probs[v]
			}
		}
	}
	switch {
	case k.circ == nil:
		return res{p: p}
	case len(kids) == 0:
		return k.constant(1)
	case len(kids) == 1:
		return res{id: kids[0]}
	}
	return res{id: k.circ.add(cnode{kind: cProduct, children: kids})}
}

func (k *kernel) indepOr(miss float64, kids []int32) res {
	if k.circ != nil {
		return res{id: k.circ.add(cnode{kind: cIndepOr, children: kids})}
	}
	return res{p: 1 - miss}
}

func (k *kernel) shannon(v int32, hi, lo res) res {
	if k.circ != nil {
		return res{id: k.circ.add(cnode{kind: cShannon, v: v, children: []int32{hi.id, lo.id}})}
	}
	pv := k.probs[v]
	return res{p: pv*hi.p + (1-pv)*lo.p}
}

// hashKey mixes a key's elements, FNV-1a style with an extra fold so the
// low bits a table indexes by depend on every element.
func hashKey[E uint64 | int32](key []E) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range key {
		h = (h ^ uint64(x)) * 1099511628211
		h ^= h >> 29
	}
	return h
}

// table maps a key — a run of elements — to a value: open addressing
// over slots, the keys copied back to back into one arena. A slot belongs
// to the table's current generation or is empty, so starting the next
// component is one increment.
type table[E comparable, V any] struct {
	slots []slot[V]
	keys  []E
	used  int
	gen   uint32
}

type slot[V any] struct {
	hash uint64
	off  int32 // the key is keys[off : off+n]
	n    int32
	gen  uint32
	val  V
}

func (t *table[E, V]) reset() {
	t.keys, t.used = t.keys[:0], 0
	if t.gen++; t.gen == 0 { // wrapped: old slots would look current
		clear(t.slots)
		t.gen = 1
	}
}

func (t *table[E, V]) get(h uint64, key []E) (V, bool) {
	if len(t.slots) > 0 {
		for i := h & uint64(len(t.slots)-1); t.slots[i].gen == t.gen; i = (i + 1) & uint64(len(t.slots)-1) {
			if s := &t.slots[i]; s.hash == h && slices.Equal(t.keys[s.off:s.off+s.n], key) {
				return s.val, true
			}
		}
	}
	var zero V
	return zero, false
}

// put adds a key that get did not find.
func (t *table[E, V]) put(h uint64, key []E, val V) {
	if 2*(t.used+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]slot[V], max(64, 2*len(old)))
		for _, s := range old {
			if s.gen == t.gen {
				t.place(s)
			}
		}
	}
	t.place(slot[V]{hash: h, off: int32(len(t.keys)), n: int32(len(key)), gen: t.gen, val: val})
	t.keys = append(t.keys, key...)
	t.used++
}

func (t *table[E, V]) place(s slot[V]) {
	i := s.hash & uint64(len(t.slots)-1)
	for t.slots[i].gen == t.gen {
		i = (i + 1) & uint64(len(t.slots)-1)
	}
	t.slots[i] = s
}
