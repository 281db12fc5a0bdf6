package engine

import "sync/atomic"

// Operators split their input row ranges into fixed-size chunks
// ("morsels") and process them in chunk order on the calling goroutine:
// one goroutine per query.
//
// The reduction-order contract: chunk boundaries depend only on the
// input size (morselSize is a constant), every chunk's partial result is
// computed in row order, and partials are folded in chunk order. The
// float-operation sequence of an evaluation is therefore fixed by its
// input — the same database and plans give the same bits every time.

// morselSize is the number of rows per chunk. It fixes where partial
// products are folded, so changing it changes low-order score bits.
const morselSize = 2048

// joinPartitions is the partition-count of the partitioned hash-join
// build for builds of at least one morsel. Partitioning assigns every
// key to exactly one partition, so the count never affects results.
const joinPartitions = 16

// EvalStats accumulates execution counters across one evaluation (or
// several evaluators sharing it). Safe for concurrent use.
type EvalStats struct {
	partitions atomic.Int64
}

// Partitions returns the total number of morsel chunks and hash-join
// partitions processed by operator phases that spanned more than one.
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

// addPartitions records n chunks or partitions in the stats sink.
func (ex *exec) addPartitions(n int) {
	if ex == nil || ex.stats == nil {
		return
	}
	ex.stats.partitions.Add(int64(n))
}

// chunkBounds returns the row range [lo, hi) of chunk ci over n rows.
func chunkBounds(ci, n int) (int, int) {
	lo := ci * morselSize
	hi := lo + morselSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

func numChunks(n int) int { return (n + morselSize - 1) / morselSize }

// forChunks runs fn for every chunk in [0, n), in chunk order.
func forChunks(n int, fn func(chunk int)) {
	for ci := 0; ci < n; ci++ {
		fn(ci)
	}
}

// joinTable is the partitioned hash table over the build side of a
// join: keys (as dense value ids) are interned per partition, with each
// key's build row ids stored contiguously in ascending order in one
// global row array — the same order the sequential bucket lists had, so
// probes emit identical output. Probes address matches as (start, count)
// spans into rows, letting the join's second pass gather output columns
// without re-probing.
type joinTable struct {
	mask  uint64
	rows  []int32 // build row ids grouped by partition then key, ascending within key
	parts []joinPartition
}

type joinPartition struct {
	g     *groupTable
	base  int32   // offset of this partition's segment in joinTable.rows
	start []int32 // gid -> offset into the segment, len = groups+1
}

// buildJoinTable hashes the build side's key columns morsel by morsel,
// scatters rows to partitions (a stable counting sort, so row ids stay
// ascending), and builds the per-partition tables in partition order.
// Every array is pre-sized exactly from the build cardinality: the
// signature array, the partition segments, and each partition's group
// table (sized to its row count, an upper bound on its key count).
func buildJoinTable(build *Result, pos []int, ex *exec) *joinTable {
	n := build.Len()
	ka := len(pos)
	keyCols := make([][]int32, ka)
	for k, j := range pos {
		keyCols[k] = build.ids[j]
	}
	sigs := make([]uint64, n)
	nChunks := numChunks(n)
	if nChunks > 1 {
		ex.addPartitions(nChunks)
	}
	c := ex.canc()
	forChunks(nChunks, func(ci int) {
		sg := newColSigner(keyCols)
		lo, hi := chunkBounds(ci, n)
		for i := lo; i < hi; i++ {
			c.check()
			sigs[i] = sg.sig(i)
		}
	})
	p := 1
	if n >= morselSize {
		p = joinPartitions
	}
	jt := &joinTable{mask: uint64(p - 1), rows: make([]int32, n), parts: make([]joinPartition, p)}
	offs := make([]int32, p+1)
	prows := make([]int32, n)
	if p == 1 {
		offs[1] = int32(n)
		for i := range prows {
			prows[i] = int32(i)
		}
	} else {
		counts := make([]int32, p)
		for i := 0; i < n; i++ {
			counts[mix64(sigs[i])&jt.mask]++
		}
		for i := 0; i < p; i++ {
			offs[i+1] = offs[i] + counts[i]
		}
		cursor := append([]int32(nil), offs[:p]...)
		for i := 0; i < n; i++ {
			pi := mix64(sigs[i]) & jt.mask
			prows[cursor[pi]] = int32(i)
			cursor[pi]++
		}
		ex.addPartitions(p)
	}
	forChunks(p, func(pi int) {
		rows := prows[offs[pi]:offs[pi+1]]
		seg := jt.rows[offs[pi]:offs[pi+1]]
		part := &jt.parts[pi]
		part.base = offs[pi]
		part.g = newGroupTable(ka, len(rows))
		sg := newColSigner(keyCols)
		wide := sg.wide()
		gids := make([]int32, len(rows))
		for k, ri := range rows {
			c.check()
			var key []int32
			if wide {
				key = sg.keyAt(int(ri))
			}
			gid, _ := part.g.internSig(sigs[ri], key)
			gids[k] = gid
		}
		ng := part.g.size()
		cnt := make([]int32, ng)
		for _, gid := range gids {
			cnt[gid]++
		}
		part.start = make([]int32, ng+1)
		for i := 0; i < ng; i++ {
			part.start[i+1] = part.start[i] + cnt[i]
		}
		cur := append([]int32(nil), part.start[:ng]...)
		for k, ri := range rows {
			seg[cur[gids[k]]] = ri
			cur[gids[k]]++
		}
	})
	return jt
}

// lookupSpan returns the span (start, count) of build row ids matching
// the key in jt.rows, ascending; count 0 on miss. key may be nil for
// arity <= 2 signatures.
func (jt *joinTable) lookupSpan(sig uint64, key []int32) (int32, int32) {
	part := &jt.parts[mix64(sig)&jt.mask]
	gid, ok := part.g.lookupSig(sig, key)
	if !ok {
		return 0, 0
	}
	s := part.start[gid]
	return part.base + s, part.start[gid+1] - s
}
