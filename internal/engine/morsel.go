package engine

import "sync/atomic"

// Morsels: the projection (projAccum) folds its input in fixed-size
// chunks of morselSize rows, and join probes charge the row budget once
// per morselSize probe rows. Everything runs on the calling goroutine:
// one goroutine per query.
//
// The reduction-order contract: chunk boundaries depend only on the
// input size (morselSize is a constant), every chunk's partial product
// is computed in row order, and partials are folded in chunk order. The
// float-operation sequence of an evaluation is therefore fixed by its
// input — the same database and plans give the same bits every time.

// morselSize is the number of rows per chunk. It fixes where partial
// products are folded, so changing it changes low-order score bits.
const morselSize = 2048

// EvalStats accumulates execution counters across one evaluation (or
// several evaluators sharing it). Safe for concurrent use.
type EvalStats struct {
	partitions atomic.Int64
}

// Partitions returns the total number of morsel chunks folded by
// projections whose input spanned more than one chunk — the one operator
// whose chunk boundaries shape a result.
func (s *EvalStats) Partitions() int64 { return s.partitions.Load() }

// exec carries the per-operator execution context: the evaluator's
// canceller, the (possibly nil) stats sink, the (possibly nil)
// intermediate row budget, and the (possibly nil) scratch arena. A nil
// exec runs uncancellably and unbudgeted, and allocates with make.
type exec struct {
	c      *canceller
	stats  *EvalStats
	budget *rowBudget
	ar     *arena
}

func (ex *exec) canc() *canceller {
	if ex == nil {
		return nil
	}
	return ex.c
}

func (ex *exec) arena() *arena {
	if ex == nil {
		return nil
	}
	return ex.ar
}

// charge accounts n materialized intermediate rows against the
// evaluation's budget (see budget.go).
func (ex *exec) charge(n int) {
	if ex == nil {
		return
	}
	ex.budget.charge(n)
}

// addPartitions records n projection chunks in the stats sink.
func (ex *exec) addPartitions(n int) {
	if ex == nil || ex.stats == nil {
		return
	}
	ex.stats.partitions.Add(int64(n))
}

// joinTable is the hash table over the build side of a join: one group
// table over the build keys (as dense value ids), interned in row order,
// and each key's build row ids stored contiguously in ascending order by
// one stable counting sort on group id. Probes address matches as
// (start, count) spans into rows, letting the join's second pass gather
// output columns without re-probing.
type joinTable struct {
	g     *groupTable
	start []int32 // gid -> offset into rows, len = groups+1
	rows  []int32 // build row ids grouped by key, ascending within key
}

// buildJoinTable interns the build side's keys in row order into a group
// table pre-sized to the build cardinality (an upper bound on its key
// count), then counting-sorts the row ids by group id. The table's
// buffers come from the exec's arena; release gives them back.
func buildJoinTable(build *Result, pos []int, ex *exec) *joinTable {
	n := build.Len()
	keyCols := make([][]int32, len(pos))
	for k, j := range pos {
		keyCols[k] = build.ids[j]
	}
	ar := ex.arena()
	gids, g := internRows(keyCols, nil, n, n, n, ex)
	jt := &joinTable{g: g, rows: ar.int32s(n)}
	ng := g.size()
	jt.start = ar.int32s(ng + 1)
	clear(jt.start)
	for _, gid := range gids {
		jt.start[gid+1]++
	}
	for i := 0; i < ng; i++ {
		jt.start[i+1] += jt.start[i]
	}
	cur := ar.int32s(ng)
	copy(cur, jt.start[:ng])
	for i, gid := range gids {
		jt.rows[cur[gid]] = int32(i)
		cur[gid]++
	}
	ar.putInt32s(cur)
	ar.putInt32s(gids)
	return jt
}

// release gives the table's buffers back to ar.
func (jt *joinTable) release(ar *arena) {
	jt.g.release()
	ar.putInt32s(jt.start)
	ar.putInt32s(jt.rows)
}

// lookupSpan returns the span (start, count) of build row ids matching
// the key in jt.rows, ascending; count 0 on miss. key may be nil for
// arity <= 2 signatures.
func (jt *joinTable) lookupSpan(sig uint64, key []int32) (int32, int32) {
	gid, ok := jt.g.lookupSig(sig, key)
	if !ok {
		return 0, 0
	}
	s := jt.start[gid]
	return s, jt.start[gid+1] - s
}
