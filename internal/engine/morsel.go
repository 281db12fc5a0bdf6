package engine

import (
	"context"
	"sync"
	"sync/atomic"
)

// Morsel-driven intra-plan parallelism. Operators split their input row
// ranges into fixed-size chunks ("morsels") and evaluate chunks on a
// bounded pool of helper goroutines, the calling goroutine included.
//
// The determinism contract: chunk boundaries depend only on the input
// size (morselSize is a constant), every chunk's partial result is
// computed in row order, and partials are merged on one goroutine in
// chunk order. Which goroutine computes a chunk therefore never affects
// any output bit — scores are bit-identical across every Workers
// setting, including fully sequential execution (one worker runs the
// same chunks in the same order).

// morselSize is the number of rows per chunk. It trades scheduling
// overhead against load balance; it must stay constant within one
// process for the determinism contract to hold across worker counts.
const morselSize = 2048

// joinPartitions is the partition-count of the partitioned hash-join
// build for builds of at least one morsel. Partitioning assigns every
// key to exactly one partition, so the count never affects results.
const joinPartitions = 16

// EvalStats accumulates execution counters across one evaluation (or a
// group of parallel plan evaluations sharing it). All methods are safe
// for concurrent use.
type EvalStats struct {
	partitions  atomic.Int64
	parallelOps atomic.Int64
}

// Partitions returns the total number of morsel chunks and hash-join
// partitions processed by partitioned operators.
func (s *EvalStats) Partitions() int64 { return s.partitions.Load() }

// ParallelOps returns the number of operator phases that ran
// partitioned (more than one chunk or partition).
func (s *EvalStats) ParallelOps() int64 { return s.parallelOps.Load() }

// pool bounds the helper goroutines available for intra-plan
// parallelism. Capacity is workers-1: the calling goroutine always
// participates, so Workers=1 spawns no goroutines at all.
type pool struct {
	ctx context.Context
	sem chan struct{}
}

// newPool returns a pool admitting workers-1 helpers, or nil when
// workers <= 1 (sequential execution).
func newPool(ctx context.Context, workers int) *pool {
	if workers <= 1 {
		return nil
	}
	return &pool{ctx: ctx, sem: make(chan struct{}, workers-1)}
}

// exec carries the per-operator execution context: the calling
// goroutine's canceller, the (possibly nil) helper pool, the (possibly
// nil) stats sink, and the (possibly nil) intermediate row budget. A
// nil exec runs sequentially, uncancellably, and unbudgeted.
type exec struct {
	c      *canceller
	pool   *pool
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
// evaluation's budget (see budget.go). Safe from morsel helpers.
func (ex *exec) charge(n int) {
	if ex == nil {
		return
	}
	ex.budget.charge(n)
}

// addPartitions records n partitioned work units in the stats sink.
func (ex *exec) addPartitions(n int) {
	if ex == nil || ex.stats == nil {
		return
	}
	ex.stats.partitions.Add(int64(n))
	ex.stats.parallelOps.Add(1)
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

// forChunks runs fn(chunk, canceller) for every chunk in [0, n). The
// calling goroutine always works; helper goroutines join only while
// pool slots are free (acquired without blocking, so nested parallel
// operators degrade to inline execution instead of deadlocking). Each
// helper polls the context through its own canceller; the first
// cancellation observed is re-raised on the calling goroutine after all
// helpers have drained, preserving the TrapCancel contract.
func (ex *exec) forChunks(n int, fn func(chunk int, c *canceller)) {
	var p *pool
	var parent *canceller
	if ex != nil {
		p, parent = ex.pool, ex.c
	}
	if p == nil || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i, parent)
		}
		return
	}
	var next atomic.Int64
	work := func(c *canceller) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i, c)
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var helperErr error
	for spawned := 0; spawned < n-1; spawned++ {
		select {
		case p.sem <- struct{}{}:
		default:
			spawned = n // no free slot: stop trying
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-p.sem }()
			if err := TrapCancel(func() { work(&canceller{ctx: p.ctx}) }); err != nil {
				mu.Lock()
				if helperErr == nil {
					helperErr = err
				}
				mu.Unlock()
			}
		}()
	}
	// The caller's cancellation must also wait for helpers to drain
	// (they write into shared per-chunk slots) before unwinding.
	callerErr := TrapCancel(func() { work(parent) })
	wg.Wait()
	if callerErr != nil {
		panic(evalCancelled{callerErr})
	}
	if helperErr != nil {
		panic(evalCancelled{helperErr})
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

// buildJoinTable hashes the build side's key columns in parallel
// morsels, scatters rows to partitions (a stable counting sort, so row
// ids stay ascending), and builds the per-partition tables in parallel.
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
	ex.forChunks(nChunks, func(ci int, c *canceller) {
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
	ex.forChunks(p, func(pi int, c *canceller) {
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
