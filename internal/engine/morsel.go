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
// canceller, the (possibly nil) stats sink, and the (possibly nil)
// intermediate row budget. A nil exec runs uncancellably and unbudgeted.
type exec struct {
	c      *canceller
	stats  *EvalStats
	budget *rowBudget
}

func (ex *exec) canc() *canceller {
	if ex == nil {
		return nil
	}
	return ex.c
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
// count), then counting-sorts the row ids by group id.
func buildJoinTable(build *Result, pos []int, ex *exec) *joinTable {
	n := build.Len()
	keyCols := make([][]int32, len(pos))
	for k, j := range pos {
		keyCols[k] = build.ids[j]
	}
	gids, g := internRows(keyCols, nil, n, n, n, ex)
	jt := &joinTable{g: g, rows: make([]int32, n)}
	ng := g.size()
	jt.start = make([]int32, ng+1)
	for _, gid := range gids {
		jt.start[gid+1]++
	}
	for i := 0; i < ng; i++ {
		jt.start[i+1] += jt.start[i]
	}
	cur := append([]int32(nil), jt.start[:ng]...)
	for i, gid := range gids {
		jt.rows[cur[gid]] = int32(i)
		cur[gid]++
	}
	return jt
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
