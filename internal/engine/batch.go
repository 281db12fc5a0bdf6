package engine

import (
	"encoding/binary"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lapushdb/internal/plan"
)

// Cross-query subplan sharing. Optimization 2 (views for common
// subplans) memoizes canonicalized subplan results within one
// evaluation; a BatchMemo extends the same memo across every query of a
// batch evaluated against a single immutable database snapshot. Entries
// are keyed by the subplan's structural id plus a fingerprint of
// the semi-join-reduced row sets the subplan's scans read, so two
// queries share an entry exactly when evaluating the subplan standalone
// would produce bit-identical results — reuse can therefore never
// change any output bit relative to one-at-a-time evaluation (each
// entry is computed once, in the fixed reduction order of morsel.go,
// regardless of which query's evaluator gets there first).
//
// The memo also carries the batch's shared intermediate-row budget:
// MaxIntermediateRows bounds the whole batch, with rows for a shared
// subplan charged once, when it is first computed.

// BatchMemo shares canonicalized subplan results and one row budget
// across the queries of a batch. All methods are safe for concurrent
// use; a nil BatchMemo disables sharing. The memo must only be used
// with evaluators over one immutable DB (one pinned store version) and
// one set of result-affecting options — the scope string is the
// caller's statement of that invariant (version fingerprint plus
// option flags) and prefixes every key.
type BatchMemo struct {
	scope  string
	share  bool
	budget *rowBudget

	mu      sync.Mutex
	entries map[string]*memoEntry

	hits   atomic.Int64
	misses atomic.Int64
}

// memoEntry is one shared subplan result. done is closed when the
// computation finishes; ok distinguishes a committed result from a
// computation that unwound (cancellation, budget) before committing.
type memoEntry struct {
	done chan struct{}
	res  *Result
	ok   bool
}

// NewBatchMemo builds a memo scoped by the caller's version/options
// fingerprint, with a batch-wide intermediate-row budget of maxRows
// (<= 0 unlimited). share=false disables subplan reuse (Opt2 off)
// while keeping the shared budget.
func NewBatchMemo(scope string, maxRows int, share bool) *BatchMemo {
	return &BatchMemo{
		scope:   scope,
		share:   share,
		budget:  newRowBudget(maxRows),
		entries: map[string]*memoEntry{},
	}
}

// SharedHits returns how many subplan evaluations were served from the
// memo instead of being recomputed.
func (m *BatchMemo) SharedHits() int64 { return m.hits.Load() }

// SharedMisses returns how many subplan results were computed and
// inserted into the memo.
func (m *BatchMemo) SharedMisses() int64 { return m.misses.Load() }

// getOrCompute returns the memoized result for key, computing and
// inserting it when absent. Concurrent callers of the same key block
// until the first computation commits; a computation that unwinds
// (cancellation or budget panic) removes its entry so waiters retry —
// typically to fail fast on the same dead context.
func (m *BatchMemo) getOrCompute(key string, compute func() *Result) *Result {
	for {
		m.mu.Lock()
		en, ok := m.entries[key]
		if !ok {
			en = &memoEntry{done: make(chan struct{})}
			m.entries[key] = en
			m.mu.Unlock()
			m.misses.Add(1)
			return m.fill(key, en, compute)
		}
		m.mu.Unlock()
		<-en.done
		if en.ok {
			m.hits.Add(1)
			return en.res
		}
	}
}

// fill runs the computation for a fresh entry, committing on success
// and withdrawing the entry when the computation unwinds by panic (the
// engine's cancellation and budget channel).
func (m *BatchMemo) fill(key string, en *memoEntry, compute func() *Result) *Result {
	defer func() {
		if !en.ok {
			m.mu.Lock()
			delete(m.entries, key)
			m.mu.Unlock()
		}
		close(en.done)
	}()
	en.res = compute()
	en.ok = true
	return en.res
}

// memoKey builds the shared-memo key for subplan p: the memo scope, the
// plan's structural id, and — per relation the subplan scans — a
// fingerprint of that relation's semi-join-reduced live row set. Two
// evaluators producing the same key are guaranteed to compute
// bit-identical results for p: same snapshot (scope), same plan
// structure including constants and predicates (plan id, which agrees
// across the queries of a process), and same scan inputs (reduction
// fingerprints).
func (e *Evaluator) memoKey(p plan.Node) string {
	var b strings.Builder
	b.WriteString(e.opts.Memo.scope)
	b.WriteByte(0)
	id := p.ID()
	var raw [16]byte
	binary.LittleEndian.PutUint64(raw[:8], id.Hi)
	binary.LittleEndian.PutUint64(raw[8:], id.Lo)
	b.Write(raw[:])
	for _, n := range plan.Relations(p) {
		b.WriteByte(0)
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(e.reducedFP(n))
	}
	return b.String()
}

// reducedFP fingerprints one relation's semi-join-reduced live row set
// as seen by this evaluator: "*" when the relation is scanned in full,
// otherwise the live count plus an FNV-1a digest of the live indices in
// order. Computed once per relation per evaluator.
func (e *Evaluator) reducedFP(rel string) string {
	if e.reduced == nil {
		return "*"
	}
	live, ok := e.reduced[rel]
	if !ok {
		return "*"
	}
	if fp, ok := e.redFP[rel]; ok {
		return fp
	}
	h := fnv.New64a()
	var buf [4]byte
	for _, r := range live {
		buf[0], buf[1], buf[2], buf[3] = byte(r), byte(r>>8), byte(r>>16), byte(r>>24)
		h.Write(buf[:])
	}
	fp := strconv.Itoa(len(live)) + ":" + strconv.FormatUint(h.Sum64(), 16)
	if e.redFP == nil {
		e.redFP = map[string]string{}
	}
	e.redFP[rel] = fp
	return fp
}
