package engine

import (
	"fmt"
	"sort"

	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

// Secondary indexes. A hash index accelerates scans with equality
// selections (constants in atoms, = predicates); a range index — a
// permutation of row ids sorted by the column — accelerates the
// paper's TPC-H-style threshold predicates (s <= $1). Indexes are
// declared per column, built lazily on first use, and rebuilt after an
// insert (which moves the relation's length) or a delete (which resets
// them outright: a delete followed by an insert restores the length).

type hashIndex struct {
	builtAt int // relation Len() when built
	rows    map[Value][]int32
}

type rangeIndex struct {
	builtAt int
	perm    []int32 // row ids sorted by ascending column value
}

// CreateIndex declares a hash index on the named column. The index is
// built lazily at scan time.
func (r *Relation) CreateIndex(col string) error {
	i := r.colIndex(col)
	if i < 0 {
		return fmt.Errorf("engine: relation %s has no column %s", r.Name, col)
	}
	if r.hashIdx == nil {
		r.hashIdx = map[int]*hashIndex{}
	}
	if _, ok := r.hashIdx[i]; !ok {
		r.hashIdx[i] = &hashIndex{builtAt: -1}
	}
	return nil
}

// CreateRangeIndex declares a range (sorted) index on the named column,
// used by <, <=, >, >= predicates over numeric values.
func (r *Relation) CreateRangeIndex(col string) error {
	i := r.colIndex(col)
	if i < 0 {
		return fmt.Errorf("engine: relation %s has no column %s", r.Name, col)
	}
	if r.rangeIdx == nil {
		r.rangeIdx = map[int]*rangeIndex{}
	}
	if _, ok := r.rangeIdx[i]; !ok {
		r.rangeIdx[i] = &rangeIndex{builtAt: -1}
	}
	return nil
}

// invalidateIndexes marks every declared index unbuilt, so its next
// use rebuilds it.
func (r *Relation) invalidateIndexes() {
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	for _, idx := range r.hashIdx {
		idx.builtAt = -1
	}
	for _, idx := range r.rangeIdx {
		idx.builtAt = -1
	}
}

func (r *Relation) hashLookup(col int, v Value) ([]int32, bool) {
	idx, ok := r.hashIdx[col]
	if !ok {
		return nil, false
	}
	// Parallel evaluation may scan the same relation from several
	// goroutines; serialize the lazy build (and the builtAt check).
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	if idx.builtAt != r.Len() {
		idx.rows = make(map[Value][]int32, r.Len())
		for i := 0; i < r.Len(); i++ {
			val := r.Row(i)[col]
			idx.rows[val] = append(idx.rows[val], int32(i))
		}
		idx.builtAt = r.Len()
	}
	return idx.rows[v], true
}

// rangeLookup returns the row ids whose column value satisfies op
// against bound, using the sorted permutation. Only numeric (>= 0)
// values participate in range comparisons, matching compiledPred.
func (r *Relation) rangeLookup(col int, op cq.CompareOp, bound Value) ([]int32, bool) {
	idx, ok := r.rangeIdx[col]
	if !ok {
		return nil, false
	}
	if bound < 0 {
		return nil, false // non-numeric bound: fall back to full scan
	}
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	if idx.builtAt != r.Len() {
		idx.perm = make([]int32, r.Len())
		for i := range idx.perm {
			idx.perm[i] = int32(i)
		}
		sort.Slice(idx.perm, func(a, b int) bool {
			return r.Row(int(idx.perm[a]))[col] < r.Row(int(idx.perm[b]))[col]
		})
		idx.builtAt = r.Len()
	}
	perm := idx.perm
	val := func(k int) Value { return r.Row(int(perm[k]))[col] }
	// Negative (interned string) values sort first; numeric comparisons
	// only apply to values >= 0, so locate the first non-negative entry.
	lo := sort.Search(len(perm), func(k int) bool { return val(k) >= 0 })
	switch op {
	case cq.OpLE:
		hi := sort.Search(len(perm), func(k int) bool { return val(k) > bound })
		return perm[lo:hi], true
	case cq.OpLT:
		hi := sort.Search(len(perm), func(k int) bool { return val(k) >= bound })
		return perm[lo:hi], true
	case cq.OpGE:
		start := sort.Search(len(perm), func(k int) bool { return val(k) >= bound })
		if start < lo {
			start = lo
		}
		return perm[start:], true
	case cq.OpGT:
		start := sort.Search(len(perm), func(k int) bool { return val(k) > bound })
		if start < lo {
			start = lo
		}
		return perm[start:], true
	default:
		return nil, false
	}
}

// indexCandidates inspects a scan's filters and returns the smallest
// index-provided candidate row set, or (nil, false) when no declared
// index applies.
func (r *Relation) indexCandidates(db *DB, s *plan.Scan) ([]int32, bool) {
	if r.hashIdx == nil && r.rangeIdx == nil {
		return nil, false
	}
	var best []int32
	found := false
	consider := func(rows []int32, ok bool) {
		if ok && (!found || len(rows) < len(best)) {
			best = rows
			found = true
		}
	}
	// Constants in atom argument positions.
	for j, t := range s.Atom.Args {
		if !t.IsVar() {
			consider(r.hashLookup(j, db.lookupConst(t.Const)))
		}
	}
	// Predicates bound to argument positions.
	varPos := map[cq.Var]int{}
	for j, t := range s.Atom.Args {
		if t.IsVar() {
			if _, ok := varPos[t.Var]; !ok {
				varPos[t.Var] = j
			}
		}
	}
	for _, p := range s.Preds {
		j, ok := varPos[p.Var]
		if !ok {
			continue
		}
		switch p.Op {
		case cq.OpEQ:
			consider(r.hashLookup(j, db.lookupConst(p.Const)))
		case cq.OpLE, cq.OpLT, cq.OpGE, cq.OpGT:
			consider(r.rangeLookup(j, p.Op, db.lookupConst(p.Const)))
		}
	}
	return best, found
}
