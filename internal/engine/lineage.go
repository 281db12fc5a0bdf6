package engine

import (
	"context"
	"sort"

	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

// Lineage holds, for every answer tuple of a query, its lineage DNF over
// the database's Boolean tuple variables: one clause (set of variable ids)
// per satisfying assignment of the existential variables. Tuples of
// deterministic relations contribute no variables; a clause that becomes
// empty is always true, making the answer certain.
type Lineage struct {
	Cols    []cq.Var
	keys    [][]Value
	clauses [][][]int32
}

// Len returns the number of answers.
func (l *Lineage) Len() int { return len(l.keys) }

// Key returns the i-th answer's head values.
func (l *Lineage) Key(i int) []Value { return l.keys[i] }

// Clauses returns the i-th answer's DNF as clauses of variable ids.
func (l *Lineage) Clauses(i int) [][]int32 { return l.clauses[i] }

// Size returns the number of clauses (lineage size, the paper's |lin|) of
// the i-th answer.
func (l *Lineage) Size(i int) int { return len(l.clauses[i]) }

// MaxSize returns the largest lineage size over all answers — the paper's
// max[lineage size] axis.
func (l *Lineage) MaxSize() int {
	m := 0
	for i := range l.clauses {
		if len(l.clauses[i]) > m {
			m = len(l.clauses[i])
		}
	}
	return m
}

// EvalLineage computes the lineage of every answer of q over db — the
// paper's "lineage query". Any probabilistic method that runs outside the
// database engine must at least do this work. Atoms are joined with the
// same semi-join-reduced scan sets as Optimization 3 when reduced is
// non-nil (pass SemiJoinReduce output) to keep intermediate results small.
func EvalLineage(db *DB, q *cq.Query, reduced map[string][]int32) *Lineage {
	return EvalLineageCtx(nil, db, q, reduced)
}

// EvalLineageCtx is EvalLineage bound to a context: the scan and join
// loops poll ctx and unwind with a cancellation panic when it is done.
// Callers passing a non-nil ctx must wrap the call in TrapCancel.
func EvalLineageCtx(ctx context.Context, db *DB, q *cq.Query, reduced map[string][]int32) *Lineage {
	cancel := &canceller{ctx: ctx}
	type lrel struct {
		cols []cq.Var
		rows [][]Value
		vars [][]int32
	}
	scanAtom := func(a cq.Atom) *lrel {
		rel := db.Relation(a.Rel)
		s := plan.NewScan(a, q.PredsOnAtom(a))
		filter := newRowFilter(db, rel, s)
		cols := s.Head()
		pos := make([]int, len(cols))
		for i, v := range cols {
			for j, t := range a.Args {
				if t.Var == v {
					pos[i] = j
					break
				}
			}
		}
		out := &lrel{cols: cols}
		emit := func(i int) {
			cancel.check()
			row := rel.Row(i)
			if !filter.ok(row) {
				return
			}
			vals := make([]Value, len(cols))
			for k, j := range pos {
				vals[k] = row[j]
			}
			out.rows = append(out.rows, vals)
			if id := rel.VarID(i); id >= 0 {
				out.vars = append(out.vars, []int32{id})
			} else {
				out.vars = append(out.vars, nil)
			}
		}
		if reduced != nil {
			if idxs, ok := reduced[rel.Name]; ok {
				for _, i := range idxs {
					emit(int(i))
				}
				return out
			}
		}
		for i := 0; i < rel.Len(); i++ {
			emit(i)
		}
		return out
	}
	joinL := func(l, r *lrel) *lrel {
		_, lPos, rPos := sharedCols(l.cols, r.cols)
		colSet := cq.NewVarSet(l.cols...)
		for _, c := range r.cols {
			colSet.Add(c)
		}
		outCols := colSet.Sorted()
		type src struct {
			left bool
			pos  int
		}
		srcs := make([]src, len(outCols))
		for i, c := range outCols {
			if j := colIndex(l.cols, c); j >= 0 {
				srcs[i] = src{true, j}
			} else {
				srcs[i] = src{false, colIndex(r.cols, c)}
			}
		}
		table := map[string][]int32{}
		key := make([]byte, 0, 16)
		for i := range r.rows {
			key = key[:0]
			for _, j := range rPos {
				key = appendValue(key, r.rows[i][j])
			}
			table[string(key)] = append(table[string(key)], int32(i))
		}
		out := &lrel{cols: outCols}
		for i := range l.rows {
			key = key[:0]
			for _, j := range lPos {
				key = appendValue(key, l.rows[i][j])
			}
			for _, ri := range table[string(key)] {
				cancel.check()
				vals := make([]Value, len(outCols))
				for k, s := range srcs {
					if s.left {
						vals[k] = l.rows[i][s.pos]
					} else {
						vals[k] = r.rows[ri][s.pos]
					}
				}
				vs := make([]int32, 0, len(l.vars[i])+len(r.vars[ri]))
				vs = append(vs, l.vars[i]...)
				vs = append(vs, r.vars[ri]...)
				out.rows = append(out.rows, vals)
				out.vars = append(out.vars, vs)
			}
		}
		return out
	}

	atoms := orderAtomsByConnectivity(q.Atoms)
	cur := scanAtom(atoms[0])
	for _, a := range atoms[1:] {
		cur = joinL(cur, scanAtom(a))
	}

	// Group by head values.
	head := append([]cq.Var(nil), q.Head...)
	sort.Slice(head, func(i, j int) bool { return head[i] < head[j] })
	keep := make([]int, len(head))
	for i, v := range head {
		keep[i] = colIndex(cur.cols, v)
	}
	out := &Lineage{Cols: head}
	groups := map[string]int{}
	key := make([]byte, 0, 16)
	for i := range cur.rows {
		cancel.check()
		key = key[:0]
		for _, j := range keep {
			key = appendValue(key, cur.rows[i][j])
		}
		g, ok := groups[string(key)]
		if !ok {
			g = out.Len()
			groups[string(key)] = g
			vals := make([]Value, len(head))
			for k, j := range keep {
				vals[k] = cur.rows[i][j]
			}
			out.keys = append(out.keys, vals)
			out.clauses = append(out.clauses, nil)
		}
		clause := append([]int32(nil), cur.vars[i]...)
		sort.Slice(clause, func(a, b int) bool { return clause[a] < clause[b] })
		out.clauses[g] = append(out.clauses[g], clause)
	}
	// Deduplicate identical clauses per answer (repeated variables inside
	// a clause are also collapsed by the sort + unique pass).
	for g := range out.clauses {
		out.clauses[g] = dedupeClauses(out.clauses[g])
	}
	return out
}

func dedupeClauses(cs [][]int32) [][]int32 {
	seen := map[string]bool{}
	var out [][]int32
	key := make([]byte, 0, 32)
	for _, c := range cs {
		// Collapse duplicate variables within the clause (sorted already).
		uniq := c[:0]
		for i, v := range c {
			if i == 0 || c[i-1] != v {
				uniq = append(uniq, v)
			}
		}
		key = key[:0]
		for _, v := range uniq {
			key = appendValue(key, Value(v))
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, uniq)
		}
	}
	return out
}

// orderAtomsByConnectivity reorders atoms so that each one (after the
// first) shares a variable with an earlier atom whenever possible,
// avoiding needless cross products in left-deep folds.
func orderAtomsByConnectivity(atoms []cq.Atom) []cq.Atom {
	out := make([]cq.Atom, 0, len(atoms))
	used := make([]bool, len(atoms))
	out = append(out, atoms[0])
	used[0] = true
	have := cq.NewVarSet(atoms[0].Vars()...)
	for len(out) < len(atoms) {
		pick := -1
		for i, a := range atoms {
			if used[i] {
				continue
			}
			for _, v := range a.Vars() {
				if have.Has(v) {
					pick = i
					break
				}
			}
			if pick >= 0 {
				break
			}
		}
		if pick < 0 {
			for i := range atoms {
				if !used[i] {
					pick = i
					break
				}
			}
		}
		used[pick] = true
		out = append(out, atoms[pick])
		for _, v := range atoms[pick].Vars() {
			have.Add(v)
		}
	}
	return out
}

// EvalDeterministic evaluates q under set semantics — the paper's
// "standard SQL" baseline (select distinct, no probability arithmetic).
// Atoms are joined in connectivity order with early projection: after
// each join, columns no longer needed by the head or by later atoms are
// projected away with duplicate elimination. It returns the distinct
// head tuples.
func EvalDeterministic(db *DB, q *cq.Query) *Result {
	return EvalDeterministicCtx(nil, db, q)
}

// EvalDeterministicCtx is EvalDeterministic bound to a context (see
// EvalLineageCtx for the cancellation contract).
func EvalDeterministicCtx(ctx context.Context, db *DB, q *cq.Query) *Result {
	head := q.HeadSet()
	atoms := orderAtomsByConnectivity(q.Atoms)
	// needed[i]: variables required after joining atom i.
	needed := make([]cq.VarSet, len(atoms))
	later := head.Clone()
	for i := len(atoms) - 1; i >= 0; i-- {
		needed[i] = later.Clone()
		for _, v := range atoms[i].Vars() {
			later.Add(v)
		}
	}
	e := NewEvaluatorCtx(ctx, db, nil, Options{})
	var cur *Result
	for i, a := range atoms {
		s := e.scan(plan.NewScan(a, q.PredsOnAtom(a)))
		dedupeInPlace(s)
		if cur == nil {
			cur = s
		} else {
			cur = join(cur, s, &e.exec)
		}
		keep := cq.NewVarSet(cur.Cols...).Intersect(needed[i].Union(head))
		cur = projectSet(cur, keep.Sorted())
	}
	cur = projectSet(cur, head.Clone().Sorted())
	return cur
}

// projectSet projects under set semantics: duplicates are eliminated and
// scores forced to 1.
func projectSet(in *Result, onto []cq.Var) *Result {
	out := project(in, onto, nil)
	for i := range out.scores {
		out.scores[i] = 1
	}
	return out
}

// dedupeInPlace removes duplicate rows, keeping score 1 (set semantics).
func dedupeInPlace(r *Result) {
	m := r.Len()
	seen := newGroupTable(len(r.Cols), m)
	n := 0
	key := make([]int32, 0, len(r.Cols))
	for i := 0; i < m; i++ {
		key = r.idRowInto(i, key)
		if _, fresh := seen.intern(key); !fresh {
			continue
		}
		for k := range r.ids {
			r.vals[k][n] = r.vals[k][i]
			r.ids[k][n] = r.ids[k][i]
		}
		r.scores[n] = 1
		n++
	}
	for k := range r.ids {
		r.vals[k] = r.vals[k][:n]
		r.ids[k] = r.ids[k][:n]
	}
	r.scores = r.scores[:n]
}
