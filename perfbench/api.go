package main

// The benchmark's API footprint. Every call the harness makes into the
// system under test goes through a function in this file, so a change to
// a layer's public surface (ROADMAP items 1 and 5) edits the benchmark
// in one place, and a reviewer can read here exactly which entry points
// the numbers depend on. Only context-first forms are used. The
// profiling interpreter (Evaluator.EvalProfiled), Options.Oracle and
// internal/engine/oracle are deliberately absent: the roadmap removes
// them, and nothing the suite reports may depend on them.

import (
	"context"
	"math/rand"
	"net/http"

	"lapushdb"
	"lapushdb/internal/anytime"
	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/engine"
	"lapushdb/internal/exact"
	"lapushdb/internal/mc"
	"lapushdb/internal/plan"
	"lapushdb/internal/server"
	"lapushdb/internal/store"
)

// --- cq, core ---------------------------------------------------------

func apiParse(query string) (*cq.Query, error) { return cq.Parse(query) }

func apiSchemaFor(db *engine.DB, q *cq.Query) *core.Schema { return engine.SchemaFor(db, q) }

func apiMinimalPlans(q *cq.Query, sch *core.Schema) []plan.Node { return core.MinimalPlans(q, sch) }

func apiSinglePlan(q *cq.Query, sch *core.Schema) plan.Node { return core.SinglePlan(q, sch) }

func apiIsSafe(q *cq.Query, sch *core.Schema) bool { return core.IsSafe(q, sch) }

// --- engine -----------------------------------------------------------

// Engine calls unwind cancellation and budget errors as panics;
// TrapCancel turns them back into errors at this boundary, exactly as
// the lapushdb package does.

func apiSemiJoinReduce(ctx context.Context, db *engine.DB, q *cq.Query) (reduced map[string][]int32, err error) {
	err = engine.TrapCancel(func() { reduced = engine.SemiJoinReduceCtx(ctx, db, q) })
	return reduced, err
}

// apiEvalPlans evaluates every minimal plan and keeps the per-answer
// minimum (Def. 14) with Opt2 on, over a precomputed Opt3 reduction
// when one is given and computing it otherwise.
func apiEvalPlans(ctx context.Context, db *engine.DB, q *cq.Query, plans []plan.Node, reduced map[string][]int32, workers int, stats *engine.EvalStats) (res *engine.Result, err error) {
	opts := engine.Options{ReuseSubplans: true, SemiJoin: true, Reduced: reduced, Workers: workers, Stats: stats}
	err = engine.TrapCancel(func() { res = engine.EvalPlansCtx(ctx, db, q, plans, opts) })
	return res, err
}

// apiEvalSinglePlan is the paper's Opt1-2-3 evaluation: the merged
// single plan with subplan reuse and the semi-join reduction.
func apiEvalSinglePlan(ctx context.Context, db *engine.DB, q *cq.Query, single plan.Node) (res *engine.Result, err error) {
	opts := engine.Options{ReuseSubplans: true, SemiJoin: true}
	err = engine.TrapCancel(func() { res = engine.NewEvaluatorCtx(ctx, db, q, opts).Eval(single) })
	return res, err
}

func apiEvalDeterministic(ctx context.Context, db *engine.DB, q *cq.Query) (res *engine.Result, err error) {
	err = engine.TrapCancel(func() { res = engine.EvalDeterministicCtx(ctx, db, q) })
	return res, err
}

func apiEvalLineage(ctx context.Context, db *engine.DB, q *cq.Query, reduced map[string][]int32) (lin *engine.Lineage, err error) {
	err = engine.TrapCancel(func() { lin = engine.EvalLineageCtx(ctx, db, q, reduced) })
	return lin, err
}

// --- anytime, mc, exact -----------------------------------------------

// apiAnytime mirrors the configuration lapushdb.RankAnytimePrepared
// builds for a server request: Opt2+Opt3 on, one worker, the request's
// sample cap and seed, every other knob at its default.
func apiAnytime(ctx context.Context, db *engine.DB, q *cq.Query, plans []plan.Node, safe bool, eps float64, mcMax int, seed int64, onStage func(anytime.Snapshot)) (*anytime.Result, error) {
	return anytime.Evaluate(ctx, db, q, plans, anytime.Config{
		Epsilon: eps, ReuseSubplans: true, SemiJoin: true, Safe: safe,
		Scope: "perfbench", MCMaxSamples: mcMax, Seed: seed, OnStage: onStage,
	})
}

func apiKarpLuby(ctx context.Context, clauses [][]int32, probs []float64, samples int, seed int64) (float64, error) {
	return mc.KarpLubyCtx(ctx, clauses, probs, samples, rand.New(rand.NewSource(seed)))
}

func apiExactProb(clauses [][]int32, probs []float64) float64 { return exact.Prob(clauses, probs) }

// --- lapushdb (public API) --------------------------------------------

var dissOptions = lapushdb.Options{Method: lapushdb.Dissociation}

func apiRank(ctx context.Context, db *lapushdb.DB, query string) ([]lapushdb.Answer, error) {
	opts := dissOptions
	return db.RankContext(ctx, query, &opts)
}

func apiPrepare(ctx context.Context, db *lapushdb.DB, query string) (*lapushdb.Prepared, error) {
	opts := dissOptions
	return db.PrepareContext(ctx, query, &opts)
}

func apiRankPrepared(ctx context.Context, db *lapushdb.DB, p *lapushdb.Prepared) ([]lapushdb.Answer, error) {
	opts := dissOptions
	return db.RankPrepared(ctx, p, &opts)
}

func apiRankAnytime(ctx context.Context, db *lapushdb.DB, query string, eps float64, mcMax int, seed int64) (*lapushdb.AnytimeResult, error) {
	return db.RankAnytimeContext(ctx, query, &lapushdb.AnytimeOptions{Epsilon: eps, MCMaxSamples: mcMax, Seed: seed})
}

// --- store, server ----------------------------------------------------

// apiOpenStore opens a durable store with the shipped defaults
// (checkpoint cadence, breaker, retries) and the given fsync policy.
// seed populates a first boot and is ignored when dir already holds a
// manifest.
func apiOpenStore(seed *lapushdb.DB, dir string, fsync store.FsyncPolicy) (*store.Store, error) {
	return store.Open(seed, store.Options{Dir: dir, Fsync: fsync, Logf: func(string, ...any) {}})
}

func apiApply(st *store.Store, muts []store.Mutation) (*store.Version, error) { return st.Apply(muts) }

func apiCheckpoint(st *store.Store) error { return st.Checkpoint() }

// apiNewServer is lapushd's handler stack with the default
// server.Config (only its log sink is replaced).
func apiNewServer(st *store.Store) http.Handler {
	return server.NewWithStore(st, server.Config{Logf: func(string, ...any) {}})
}
