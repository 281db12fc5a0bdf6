package lapushdb

import (
	"context"

	"lapushdb/internal/engine"
)

// Batched multi-query evaluation. A workload rarely asks one question:
// a ranking service answers many related queries against the same data,
// and the companion DBMS paper's view-reuse observation (Opt2) pays off
// across a whole batch, not just within one query's minimal plans.
// A Batch pins one database state and evaluates N queries against it,
// sharing canonicalized subplan results across the queries: a subplan
// is reused exactly when evaluating it standalone would produce
// bit-identical results (same plan key, same semi-join-reduced scan
// inputs), so every query's answers are byte-equal to a one-at-a-time
// RankContext call — only cheaper. One intermediate-row budget and one
// context deadline span the whole batch.

// BatchStats reports the cross-query sharing counters of one batch.
type BatchStats struct {
	// SharedSubplanHits counts subplan evaluations served from another
	// query's memoized work.
	SharedSubplanHits int64
	// SharedSubplanMisses counts subplan results computed and inserted
	// into the shared memo.
	SharedSubplanMisses int64
}

// Batch shares evaluation work across several queries answered against
// one database state: canonicalized subplan results (the cross-query
// extension of Optimization 2) and one intermediate-row budget. The
// database must not be mutated while the batch is in use — pin an
// immutable snapshot/version, as the server does. A Batch is safe for
// concurrent use, though scores are bit-identical either way.
type Batch struct {
	d    *DB
	opts Options
	memo *engine.BatchMemo
}

// NewBatch prepares a batch evaluation over the database with the given
// options (nil for defaults). The options apply to every query of the
// batch: Method, IgnoreSchema, and MaxIntermediateRows, which bounds the
// rows materialized by the whole batch rather than one query, whatever
// the method (shared subplans are charged once, when first computed).
// Subplans are shared by the plan-based methods, Dissociation and
// Deterministic; the lineage methods share only the budget.
func (d *DB) NewBatch(opts *Options) *Batch {
	if opts == nil {
		opts = &Options{}
	}
	o := *opts
	// The scope string states the sharing invariant: one database
	// state, one set of result-affecting options. Options that change
	// plan shape are folded in defensively even though a memo never
	// outlives its Batch.
	scope := d.SchemaFingerprint()
	if o.IgnoreSchema {
		scope += "|ns"
	}
	o.memo = engine.NewBatchMemo(scope, o.MaxIntermediateRows)
	return &Batch{d: d, opts: o, memo: o.memo}
}

// Rank evaluates one query as part of the batch, honoring ctx (which
// should be the same across the batch — one shared deadline). Answers
// are bit-identical to a standalone RankContext with the batch's
// options.
func (b *Batch) Rank(ctx context.Context, query string) ([]Answer, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	opts := b.opts
	q, err := parseChecked(b.d, query)
	if err != nil {
		return nil, err
	}
	return b.d.rank(ctx, q, nil, &opts)
}

// RankPrepared evaluates a prepared statement as part of the batch —
// the server's path, where statements come from a plan cache.
func (b *Batch) RankPrepared(ctx context.Context, p *Prepared) ([]Answer, error) {
	opts := b.opts
	return b.d.RankPrepared(ctx, p, &opts)
}

// Stats returns the batch's cross-query sharing counters so far.
func (b *Batch) Stats() BatchStats {
	return BatchStats{
		SharedSubplanHits:   b.memo.SharedHits(),
		SharedSubplanMisses: b.memo.SharedMisses(),
	}
}
