package engine

// The retained row-at-a-time reference evaluator ("the oracle").
//
// This file preserves the pre-columnar operator implementations —
// per-tuple scan emission, map-backed group tables, bucket-list join
// tables, append-per-row output construction — verbatim except for the
// mechanical adaptation to the columnar Result storage. The streaming
// columnar executor in eval.go/stream.go must produce bit-identical
// outputs and identical typed errors (ErrBudget, cancellation); the
// differential suites and FuzzMorselDifferential enforce that by
// evaluating every workload through both executors.
//
// Reached only through EvalPlansOracle, which only the engine's own
// tests and the test-only facade internal/engine/oracle call, so the
// linker leaves this file out of every binary. Fold ordering
// (greedyJoinOrder) is deliberately shared with the production
// executor: it is plan-level decision logic whose inputs — materialized
// child sizes — are identical in both executors, and sharing it
// guarantees both fold in the same order, which the bit-identity
// contract requires.

import (
	"context"
	"math"

	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

// EvalPlansOracle is EvalPlansCtx through the row-at-a-time reference
// operators instead of the streaming executor: the same plans, options,
// row budget and cancellation, and by contract the same bits and typed
// errors.
func EvalPlansOracle(ctx context.Context, db *DB, q *cq.Query, plans []plan.Node, opts Options) *Result {
	e := newEvaluator(ctx, db, q, opts, nil) // the reference operators allocate with make
	e.reference = e.oracleEvalNode
	var out *Result
	for _, p := range plans {
		clear(e.cache)
		r := e.eval(p)
		if out == nil {
			out = r
		} else {
			out = oracleCombineMin(out, r, &e.exec)
		}
	}
	return out
}

// oracleTable is the original map-backed group table: composite keys to
// dense group ids 0..n-1 in first-appearance order, with signature
// collision chains for wide keys.
type oracleTable struct {
	arity int
	exact bool             // arity <= 2: sig is the packed key, no compare needed
	table map[uint64]int32 // sig -> first group id with that sig
	next  []int32          // group id -> next group with equal sig, -1 ends
	keys  []int32          // flattened interned keys, arity per group
}

func newOracleTable(arity, sizeHint int) *oracleTable {
	return &oracleTable{
		arity: arity,
		exact: arity <= 2,
		table: make(map[uint64]int32, sizeHint),
	}
}

func (g *oracleTable) size() int { return len(g.next) }

func (g *oracleTable) intern(key []int32) (gid int32, fresh bool) {
	return g.internSig(keySig(key), key)
}

func (g *oracleTable) internSig(sig uint64, key []int32) (gid int32, fresh bool) {
	if first, ok := g.table[sig]; ok {
		if g.exact {
			return first, false
		}
		for id := first; ; id = g.next[id] {
			if g.keyEqual(id, key) {
				return id, false
			}
			if g.next[id] < 0 {
				gid = g.add(key)
				g.next[id] = gid
				return gid, true
			}
		}
	}
	gid = g.add(key)
	g.table[sig] = gid
	return gid, true
}

func (g *oracleTable) lookup(key []int32) (int32, bool) {
	sig := keySig(key)
	first, ok := g.table[sig]
	if !ok {
		return 0, false
	}
	if g.exact {
		return first, true
	}
	for id := first; ; id = g.next[id] {
		if g.keyEqual(id, key) {
			return id, true
		}
		if g.next[id] < 0 {
			return 0, false
		}
	}
}

func (g *oracleTable) add(key []int32) int32 {
	id := int32(len(g.next))
	g.next = append(g.next, -1)
	if !g.exact {
		g.keys = append(g.keys, key...)
	}
	return id
}

func (g *oracleTable) keyEqual(id int32, key []int32) bool {
	base := int(id) * g.arity
	for i, v := range key {
		if g.keys[base+i] != v {
			return false
		}
	}
	return true
}

// idRowInto gathers row i's dense value ids into dst — the oracle's
// replacement for the row-major idRow view.
func (r *Result) idRowInto(i int, dst []int32) []int32 {
	dst = dst[:0]
	for _, c := range r.ids {
		dst = append(dst, c[i])
	}
	return dst
}

// oracleEvalNode is the old evalNode: one plan node through the
// row-at-a-time operators, recursing through Eval so children hit the
// caches.
func (e *Evaluator) oracleEvalNode(p plan.Node) *Result {
	var out *Result
	switch t := p.(type) {
	case *plan.Scan:
		out = e.oracleScan(t)
	case *plan.Project:
		out = oracleProject(e.eval(t.Child), t.OnTo, &e.exec)
	case *plan.Join:
		results := make([]*Result, len(t.Subs))
		for i, c := range t.Subs {
			results[i] = e.eval(c)
		}
		out = foldJoin(results, &e.exec, oracleJoin)
	case *plan.Min:
		out = e.eval(t.Subs[0])
		for _, c := range t.Subs[1:] {
			out = oracleCombineMin(out, e.eval(c), &e.exec)
		}
	default:
		panic("engine: unknown plan node")
	}
	return out
}

// oracleScan is the old scan: per-row filter check and append-per-column
// emission, charging the budget one row at a time.
func (e *Evaluator) oracleScan(s *plan.Scan) *Result {
	rel, cols, pos := scanLayout(e.db, s)
	filter := newRowFilter(e.db, rel, s)
	out := newResult(cols, e.db.vals)
	emit := func(i int) {
		e.cancel.check()
		if !filter.ok(rel.Row(i)) {
			return
		}
		e.exec.charge(1)
		vrow := rel.vidRow(i)
		for k, j := range pos {
			out.ids[k] = append(out.ids[k], vrow[j])
		}
		out.scores = append(out.scores, rel.Prob(i))
	}
	if idxs, ok := e.reduced[rel.Name]; ok {
		for _, i := range idxs {
			emit(int(i))
		}
		return out
	}
	for i := 0; i < rel.Len(); i++ {
		emit(i)
	}
	return out
}

// oracleProject is the old morsel-chunked projection: per-chunk
// map-backed group tables with complement partials in row order, merged
// chunk-ascending, rows appended one at a time.
func oracleProject(in *Result, onto []cq.Var, ex *exec) *Result {
	keep := make([]int, len(onto))
	for i, v := range onto {
		keep[i] = colIndex(in.Cols, v)
	}
	ka := len(keep)
	n := in.Len()
	out := newResult(append([]cq.Var(nil), onto...), in.dict)
	if n == 0 {
		return out
	}
	type chunkGroups struct {
		firstRow []int32 // local group id -> first input row of the group
		partial  []float64
	}
	locals := make([]chunkGroups, (n+morselSize-1)/morselSize)
	cc := ex.canc()
	for ci := range locals {
		lo := ci * morselSize
		hi := min(lo+morselSize, n)
		g := newOracleTable(ka, hi-lo)
		lg := &locals[ci]
		key := make([]int32, ka)
		for i := lo; i < hi; i++ {
			cc.check()
			for k, j := range keep {
				key[k] = in.ids[j][i]
			}
			gid, fresh := g.intern(key)
			if fresh {
				ex.charge(1)
				lg.firstRow = append(lg.firstRow, int32(i))
				lg.partial = append(lg.partial, 1)
			}
			lg.partial[gid] *= 1 - in.scores[i]
		}
	}
	global := newOracleTable(ka, len(locals[0].firstRow))
	key := make([]int32, ka)
	for ci := range locals {
		lg := &locals[ci]
		for li, ri := range lg.firstRow {
			cc.check()
			for k, j := range keep {
				key[k] = in.ids[j][ri]
			}
			gid, fresh := global.intern(key)
			if fresh {
				for k, j := range keep {
					out.ids[k] = append(out.ids[k], in.ids[j][ri])
				}
				out.scores = append(out.scores, 1)
			}
			out.scores[gid] *= lg.partial[li]
		}
	}
	for i := range out.scores {
		out.scores[i] = 1 - out.scores[i]
	}
	return out
}

// oracleJoinTable is the old bucket-list join table: build keys
// interned in row order via oracleTable, each key's build rows appended
// to its bucket, so every bucket ascends.
type oracleJoinTable struct {
	g       *oracleTable
	buckets [][]int32 // gid -> build row ids
}

func buildOracleJoinTable(build *Result, pos []int, ex *exec) *oracleJoinTable {
	n := build.Len()
	jt := &oracleJoinTable{g: newOracleTable(len(pos), n)}
	key := make([]int32, len(pos))
	c := ex.canc()
	for i := 0; i < n; i++ {
		c.check()
		for k, j := range pos {
			key[k] = build.ids[j][i]
		}
		gid, fresh := jt.g.intern(key)
		if fresh {
			jt.buckets = append(jt.buckets, nil)
		}
		jt.buckets[gid] = append(jt.buckets[gid], int32(i))
	}
	return jt
}

func (jt *oracleJoinTable) lookup(key []int32) []int32 {
	gid, ok := jt.g.lookup(key)
	if !ok {
		return nil
	}
	return jt.buckets[gid]
}

// oracleJoin is the old natural join: probe rows in order, one output
// value appended at a time.
func oracleJoin(l, r *Result, ex *exec) *Result {
	_, lPos, rPos := sharedCols(l.Cols, r.Cols)
	colSet := cq.NewVarSet(l.Cols...)
	for _, c := range r.Cols {
		colSet.Add(c)
	}
	outCols := colSet.Sorted()
	type src struct {
		left bool
		pos  int
	}
	srcs := make([]src, len(outCols))
	for i, c := range outCols {
		if j := colIndex(l.Cols, c); j >= 0 {
			srcs[i] = src{true, j}
		} else {
			srcs[i] = src{false, colIndex(r.Cols, c)}
		}
	}
	out := newResult(outCols, l.dict)
	build, probe := r, l
	buildPos, probePos := rPos, lPos
	buildLeft := false
	if l.Len() < r.Len() {
		build, probe = l, r
		buildPos, probePos = lPos, rPos
		buildLeft = true
	}
	jt := buildOracleJoinTable(build, buildPos, ex)
	c := ex.canc()
	key := make([]int32, len(probePos))
	for i := 0; i < probe.Len(); i++ {
		c.check()
		for k, j := range probePos {
			key[k] = probe.ids[j][i]
		}
		for _, bi := range jt.lookup(key) {
			c.check()
			var lres, rres *Result
			var li, ri int
			var ls, rs float64
			if buildLeft {
				lres, li = build, int(bi)
				rres, ri = probe, i
				ls, rs = build.scores[bi], probe.scores[i]
			} else {
				lres, li = probe, i
				rres, ri = build, int(bi)
				ls, rs = probe.scores[i], build.scores[bi]
			}
			for k, s := range srcs {
				if s.left {
					out.ids[k] = append(out.ids[k], lres.ids[s.pos][li])
				} else {
					out.ids[k] = append(out.ids[k], rres.ids[s.pos][ri])
				}
			}
			out.scores = append(out.scores, ls*rs)
			ex.charge(1)
		}
	}
	return out
}

// oracleCombineMin is the old per-tuple minimum merge.
func oracleCombineMin(a, b *Result, ex *exec) *Result {
	if !varsSliceEqual(a.Cols, b.Cols) {
		panic("engine: min over different columns")
	}
	cc := ex.canc()
	g := newOracleTable(len(a.Cols), a.Len())
	rowOf := make([]int32, 0, a.Len())
	out := newResult(a.Cols, a.dict)
	for k := range a.ids {
		out.ids[k] = append([]int32(nil), a.ids[k]...)
	}
	out.scores = append([]float64(nil), a.scores...)
	key := make([]int32, 0, len(a.Cols))
	for i := 0; i < a.Len(); i++ {
		cc.check()
		key = a.idRowInto(i, key)
		gid, fresh := g.intern(key)
		if fresh {
			rowOf = append(rowOf, int32(i))
		} else {
			rowOf[gid] = int32(i) // duplicate key in a: last wins, as before
		}
	}
	for i := 0; i < b.Len(); i++ {
		cc.check()
		key = b.idRowInto(i, key)
		if gid, ok := g.lookup(key); ok {
			j := rowOf[gid]
			out.scores[j] = math.Min(out.scores[j], b.scores[i])
		} else {
			ex.charge(1)
			for k := range out.ids {
				out.ids[k] = append(out.ids[k], b.ids[k][i])
			}
			out.scores = append(out.scores, b.scores[i])
		}
	}
	return out
}
