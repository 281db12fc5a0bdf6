package engine

import (
	"context"
	"slices"
	"strconv"

	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

// Lineage holds, for every answer tuple of a query, its lineage DNF over
// the database's Boolean tuple variables: one clause (set of variable ids)
// per satisfying assignment of the existential variables. Tuples of
// deterministic relations contribute no variables; a clause that becomes
// empty is always true, making the answer certain.
//
// Every clause of a self-join-free query holds one id per probabilistic
// atom, so all clauses share one arena of that width and each answer's
// clauses are one run of it. Ids ascend within a clause, and an answer's
// clauses are distinct and in lexicographic order: what a consumer sees
// depends on the clause set alone.
type Lineage struct {
	Cols    []cq.Var
	keys    []Value   // answer i's head values: keys[i*len(Cols):][:len(Cols)]
	off     []int32   // answer i's clauses: clauses[off[i]:off[i+1]]
	clauses [][]int32 // capacity-clamped views into the arena
}

// Len returns the number of answers.
func (l *Lineage) Len() int { return len(l.off) - 1 }

// Key returns the i-th answer's head values.
func (l *Lineage) Key(i int) []Value {
	k := len(l.Cols)
	return l.keys[i*k : (i+1)*k : (i+1)*k]
}

// Clauses returns the i-th answer's DNF as clauses of variable ids. The
// clauses are views into shared storage; do not modify them.
func (l *Lineage) Clauses(i int) [][]int32 { return l.clauses[l.off[i]:l.off[i+1]:l.off[i+1]] }

// Size returns the number of clauses (lineage size, the paper's |lin|) of
// the i-th answer.
func (l *Lineage) Size(i int) int { return int(l.off[i+1] - l.off[i]) }

// MaxSize returns the largest lineage size over all answers — the paper's
// max[lineage size] axis.
func (l *Lineage) MaxSize() int {
	m := 0
	for i := 0; i < l.Len(); i++ {
		m = max(m, l.Size(i))
	}
	return m
}

// EvalLineageCtx computes the lineage of every answer of q over db — the
// paper's "lineage query". Any probabilistic method that runs outside the
// database engine must at least do this work. Atoms are scanned with the
// same semi-join-reduced row sets as Optimization 3 when reduced is
// non-nil (pass SemiJoinReduceCtx output) to keep intermediate results
// small. The scan and join loops poll ctx and unwind with a cancellation
// panic when it is done. Callers passing a non-nil ctx must wrap the call
// in TrapCancel. It has no row budget; Evaluator.Lineage runs under one.
func EvalLineageCtx(ctx context.Context, db *DB, q *cq.Query, reduced map[string][]int32) *Lineage {
	e := NewEvaluatorCtx(ctx, db, nil, Options{Reduced: reduced})
	defer e.Release()
	return e.Lineage(q)
}

// Lineage computes the lineage of every answer of the self-join-free
// query q on the executor: each atom is scanned by scan, under the
// evaluator's reduction, and a probabilistic atom's scan gains one id
// column holding its tuples' variable ids, under a name no variable of q
// has. The scans are joined in greedy order and the rows grouped by the
// sorted head. Scans and joins poll the evaluator's context and charge
// its row budget. The lineage is the caller's; the scans and joins go
// back to the arena.
func (e *Evaluator) Lineage(q *cq.Query) *Lineage {
	qVars := cq.NewVarSet(q.Vars()...)
	inputs := make([]*Result, len(q.Atoms))
	var idCols []cq.Var
	dedupe := false
	for i, a := range q.Atoms {
		rel := e.db.Relation(a.Rel)
		var vars []int32 // the tuples' variable ids, for a probabilistic atom
		if rel != nil && !rel.Deterministic {
			vars = rel.vars
		}
		r, ids := e.scan(plan.NewScan(a, q.PredsOnAtom(a)), vars)
		inputs[i] = r
		if rel.Deterministic {
			// Rows that differ only in this atom's tuple repeat a clause.
			dedupe = true
			continue
		}
		// A built query may name a variable "#i"; prefixing more '#'s
		// keeps the name fresh, and distinct from the other id columns.
		v := cq.Var("#" + strconv.Itoa(i))
		for qVars.Has(v) {
			v = "#" + v
		}
		idCols = append(idCols, v)
		r.Cols = append(r.Cols, v)
		r.ids = append(r.ids, ids)
	}
	rows := foldJoin(inputs, &e.exec, join)
	head := slices.Clone(q.Head)
	slices.Sort(head)
	lin := groupLineage(rows, head, idCols, dedupe, &e.exec)
	if len(inputs) > 1 {
		e.exec.ar.putResult(rows)
	}
	for _, r := range inputs {
		e.exec.ar.putResult(r)
	}
	return lin
}

// groupLineage groups the joined rows by the head columns into answers,
// in first-appearance order, decoding each answer's key once, and lays
// their clauses out answer by answer in one arena, each clause's ids
// sorted ascending. Its scratch comes from the exec's arena; the lineage
// is allocated from the heap.
func groupLineage(rows *Result, head, idCols []cq.Var, dedupe bool, ex *exec) *Lineage {
	n, w := rows.Len(), len(idCols)
	keyIDs := make([][]int32, len(head))
	for k, v := range head {
		keyIDs[k] = rows.ids[colIndex(rows.Cols, v)]
	}
	c, ar := ex.canc(), ex.arena()
	g := newGroupTable(ar, len(head), min(n, projAccumHint))
	sg := newColSigner(keyIDs)
	wide := sg.wide()
	out := &Lineage{Cols: head}
	gids := ar.int32s(n)
	for i := range gids {
		c.check()
		var key []int32
		if wide {
			key = sg.keyAt(i)
		}
		gid, fresh := g.internSig(sg.sig(i), key)
		if fresh {
			for _, col := range keyIDs {
				out.keys = append(out.keys, rows.dict[col[i]])
			}
		}
		gids[i] = gid
	}
	ng := g.size()
	g.release()
	out.off = make([]int32, ng+1)
	for _, gid := range gids {
		out.off[gid+1]++
	}
	for x := 0; x < ng; x++ {
		out.off[x+1] += out.off[x]
	}
	varCols := make([][]int32, w)
	for k, v := range idCols {
		varCols[k] = rows.ids[colIndex(rows.Cols, v)]
	}
	flat := make([]int32, n*w)
	next := ar.int32s(ng)
	copy(next, out.off[:ng])
	for i, gid := range gids {
		c.check()
		p := int(next[gid]) * w
		next[gid]++
		cl := flat[p : p+w]
		for k, col := range varCols { // insertion into the sorted prefix
			v, j := col[i], k
			for ; j > 0 && cl[j-1] > v; j-- {
				cl[j] = cl[j-1]
			}
			cl[j] = v
		}
	}
	ar.putInt32s(next)
	ar.putInt32s(gids)
	flat = sortClauses(flat, out.off, w, dedupe)
	out.clauses = make([][]int32, out.off[ng])
	for x := range out.clauses {
		out.clauses[x] = flat[x*w : (x+1)*w : (x+1)*w]
	}
	return out
}

// sortClauses puts each answer's clauses — clauses off[g] to off[g+1] of
// the width-w arena — in lexicographic order, drops repeats when dedupe
// is set, and compacts arena and off in place.
func sortClauses(arena, off []int32, w int, dedupe bool) []int32 {
	out, m := arena[:0], 0
	var views [][]int32
	var tmp []int32
	for g := 0; g+1 < len(off); g++ {
		views = views[:0]
		for x := int(off[g]); x < int(off[g+1]); x++ {
			views = append(views, arena[x*w:(x+1)*w])
		}
		off[g] = int32(m)
		slices.SortFunc(views, slices.Compare[[]int32])
		if dedupe { // with w = 0 this leaves the one empty clause
			views = slices.CompactFunc(views, slices.Equal[[]int32])
		}
		tmp = tmp[:0] // the views alias the arena being rewritten
		for _, v := range views {
			tmp = append(tmp, v...)
		}
		out, m = append(out, tmp...), m+len(views)
	}
	off[len(off)-1] = int32(m)
	return out
}

// EvalDeterministicCtx evaluates q under set semantics — the paper's
// "standard SQL" baseline (select distinct, no probability arithmetic).
// It returns the distinct head tuples, each scored 1. ctx is polled as
// EvalLineageCtx describes. It has no row budget; Evaluator.Deterministic
// runs under one.
func EvalDeterministicCtx(ctx context.Context, db *DB, q *cq.Query) *Result {
	e := NewEvaluatorCtx(ctx, db, nil, Options{ReuseSubplans: true})
	defer e.Release()
	return e.Deterministic(q)
}

// Deterministic evaluates q under set semantics as one plan run as a
// program: each atom is scanned once, the scans are ordered by
// greedyJoinOrder, and the left-deep plan joins them in that order,
// projecting each variable away after the last atom that needs it, so
// each projection over a join runs as a fused Project(Join) and that
// join is never materialized. The program's scan steps start from the
// ordering pass's scans. Scores are set to 1, in a copy of the score
// column when the root is a BatchMemo entry, which is never written.
func (e *Evaluator) Deterministic(q *cq.Query) *Result {
	scans := make([]*plan.Scan, len(q.Atoms))
	results := make([]*Result, len(q.Atoms))
	for i, a := range q.Atoms {
		scans[i] = plan.NewScan(a, q.PredsOnAtom(a))
		results[i], _ = e.scan(scans[i], nil)
	}
	order := greedyJoinOrder(results)
	// needed[k]: the variables the head or an atom after order[k] holds.
	needed := make([]cq.VarSet, len(order))
	later := q.HeadSet()
	for k := len(order) - 1; k >= 0; k-- {
		needed[k] = later.Clone()
		for _, v := range q.Atoms[order[k]].Vars() {
			later.Add(v)
		}
	}
	var p plan.Node
	for k, i := range order {
		if p == nil {
			p = scans[i]
		} else {
			p = plan.NewJoin(p, scans[i])
		}
		var keep []cq.Var
		for _, v := range p.Head() {
			if needed[k].Has(v) {
				keep = append(keep, v)
			}
		}
		p = plan.NewProject(keep, p)
	}
	prog := e.lower(p)
	for i, r := range results {
		for j := range prog {
			if r != nil && e.prog.slots[j] == nil && prog[j].node.ID() == scans[i].ID() {
				e.prog.slots[j], r = r, nil
			}
		}
		e.drop(r) // nil, unless Opt2 lowered a repeated atom to one scan
	}
	out := e.run(prog, nil)
	if _, ok := p.(*plan.Project); !ok {
		// A scan or join root keeps any tuple a relation stores twice.
		root := out
		out = project(root, root.Cols, &e.exec)
		e.drop(root)
	}
	if out.shared {
		// A memo entry is read by the batch's other evaluators: score a
		// header over its columns with fresh scores, shared in turn so
		// that no arena takes the columns back.
		out = &Result{Cols: out.Cols, ids: out.ids, scores: make([]float64, out.Len()), dict: out.dict, shared: true}
	}
	for i := range out.scores {
		out.scores[i] = 1
	}
	return e.detach(out)
}
