package lapushdb

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"lapushdb/internal/anytime"
	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/engine"
	"lapushdb/internal/plan"
)

// DefaultAnytimeMCMaxSamples re-exports the anytime Monte Carlo
// per-answer sample cap: layers that cannot import internal/anytime
// (the server resolves the cap before keying its result cache) must
// agree with the evaluator on the default's value.
const DefaultAnytimeMCMaxSamples = anytime.DefaultMCMaxSamples

// AnytimeOptions configures RankAnytimeContext. The zero value asks for exact
// convergence (Epsilon 0) with default refinement budgets.
type AnytimeOptions struct {
	// Epsilon is the target interval width: refinement stops once every
	// answer's upper − lower <= Epsilon. Must be in [0, 1); 0 demands
	// exact collapse. Use ValidateEpsilon for the shared validation.
	Epsilon float64
	// IgnoreSchema and MaxIntermediateRows mean what they mean on
	// Options; the row budget also covers the lineage that the
	// refinement stages after the plans build.
	IgnoreSchema        bool
	MaxIntermediateRows int
	// MCMaxSamples caps the Monte Carlo refinement stage's samples per
	// answer (default anytime.DefaultMCMaxSamples).
	MCMaxSamples int
	// Seed derives the per-answer sampling streams; results are
	// deterministic for a fixed seed.
	Seed int64

	// topK enables upper-vs-kth-lower pruning (RankTopKAnytime); memo
	// shares subplans and the row budget across a batch (Batch);
	// onStage observes every refinement step (tests).
	topK    int
	memo    *engine.BatchMemo
	onStage func(anytime.Snapshot)
}

// IntervalAnswer is one answer of an anytime evaluation: the true
// probability lies in [Lower, Upper]. Upper is always certain — a
// dissociation bound (Corollary 19) or the exact probability. Lower is
// certain too (0, a safe plan's score, an exact probability or the exact
// probability of a lineage prefix) unless LowerKind says otherwise:
// "statistical" marks a bound last raised by Karp–Luby sampling, which
// holds with the confidence of a one-sided z = 6 normal tail
// (anytime.DefaultMCZ), not with certainty. LowerKind is "" for a certain
// bound.
type IntervalAnswer struct {
	Values    []string
	Lower     float64
	Upper     float64
	Converged bool
	LowerKind string
}

// AnytimeStage reports one refinement stage's work.
type AnytimeStage struct {
	Name  string // "plans", "mc", "exact" (the first exact pass and the final stage)
	Steps int
}

// AnytimeResult is the outcome of an anytime evaluation: best-so-far
// intervals, ordered by descending upper bound.
type AnytimeResult struct {
	Answers []IntervalAnswer
	// Converged reports whether every answer reached Epsilon.
	Converged bool
	// Degraded is "" normally, "deadline" or "budget" when the context
	// deadline or the intermediate-row budget cut refinement short after
	// at least one completed stage — the intervals remain valid.
	Degraded string
	// Epsilon echoes the request; Width is the widest answer interval.
	Epsilon float64
	Width   float64
	// Refinement statistics.
	Stages         []AnytimeStage
	PlansTotal     int
	PlansEvaluated int
	MCSamples      int
}

// ValidateEpsilon checks an anytime epsilon: it must be a number in
// [0, 1). (1 would make every bare [0, 1] interval "converged", and a
// probability interval wider than 1 is meaningless.)
func ValidateEpsilon(eps float64) error {
	if math.IsNaN(eps) || eps < 0 || eps >= 1 {
		return fmt.Errorf("lapushdb: epsilon must be in [0, 1), got %v", eps)
	}
	return nil
}

// RankAnytimeContext evaluates the query as monotonically tightening
// [lower, upper] intervals, stopping when every answer's width reaches
// opts.Epsilon. It honors ctx with the anytime twist: once at least one
// refinement stage has completed, a deadline (or row-budget exhaustion)
// returns the best-so-far intervals with Degraded set instead of an
// error. Plain cancellation still errors.
func (d *DB) RankAnytimeContext(ctx context.Context, query string, opts *AnytimeOptions) (*AnytimeResult, error) {
	if opts == nil {
		opts = &AnytimeOptions{}
	}
	q, err := parseChecked(d, query)
	if err != nil {
		return nil, err
	}
	o := &Options{IgnoreSchema: opts.IgnoreSchema}
	sch := d.schema(q, o)
	plans := core.MinimalPlans(q, sch)
	return d.rankAnytime(ctx, q, plans, core.SafeGiven(q, sch, plans), opts)
}

// RankAnytimePrepared is RankAnytimeContext over a prepared statement,
// reusing its enumerated plans. opts.IgnoreSchema must match the
// preparation.
func (d *DB) RankAnytimePrepared(ctx context.Context, p *Prepared, opts *AnytimeOptions) (*AnytimeResult, error) {
	if opts == nil {
		opts = &AnytimeOptions{}
	}
	if opts.IgnoreSchema != p.ignoreSchema {
		return nil, fmt.Errorf("lapushdb: statement prepared with IgnoreSchema=%v, ranked with %v", p.ignoreSchema, opts.IgnoreSchema)
	}
	return d.rankAnytime(ctx, p.q, p.plans, p.safe, opts)
}

// RankAnytimePrepared evaluates a prepared statement within the batch:
// refinement stages share subplan results and the batch-wide
// intermediate-row budget with the batch's other queries.
func (b *Batch) RankAnytimePrepared(ctx context.Context, p *Prepared, opts *AnytimeOptions) (*AnytimeResult, error) {
	if opts == nil {
		opts = &AnytimeOptions{}
	}
	ao := *opts
	ao.memo = b.memo
	return b.d.RankAnytimePrepared(ctx, p, &ao)
}

func (d *DB) rankAnytime(ctx context.Context, q *cq.Query, plans []plan.Node, safe bool, opts *AnytimeOptions) (*AnytimeResult, error) {
	if err := ValidateEpsilon(opts.Epsilon); err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	cfg := anytime.Config{
		Epsilon:             opts.Epsilon,
		ReuseSubplans:       true,
		SemiJoin:            true,
		MaxIntermediateRows: opts.MaxIntermediateRows,
		Safe:                safe,
		Memo:                opts.memo,
		MCMaxSamples:        opts.MCMaxSamples,
		Seed:                opts.Seed,
		TopK:                opts.topK,
		OnStage:             opts.onStage,
	}
	res, err := anytime.Evaluate(ctx, d.db, q, plans, cfg)
	if err != nil {
		return nil, err
	}
	out := &AnytimeResult{
		Converged:      res.Converged,
		Degraded:       res.Degraded,
		Epsilon:        opts.Epsilon,
		Width:          res.Width(),
		PlansTotal:     res.PlansTotal,
		PlansEvaluated: res.PlansEvaluated,
		MCSamples:      res.MCSamples,
	}
	for _, s := range res.Stages {
		out.Stages = append(out.Stages, AnytimeStage{Name: s.Name, Steps: s.Steps})
	}
	for _, a := range res.Answers {
		if a.Pruned {
			continue
		}
		out.Answers = append(out.Answers, IntervalAnswer{
			Values:    d.decode(a.Key),
			Lower:     a.Lower,
			Upper:     a.Upper,
			Converged: a.Converged,
			LowerKind: a.LowerKind,
		})
	}
	sortIntervalAnswers(out.Answers)
	return out, nil
}

// sortIntervalAnswers orders by descending upper bound, then descending
// lower bound, then values ascending — the interval analogue of the
// score ordering of sortAnswers.
func sortIntervalAnswers(answers []IntervalAnswer) {
	sort.Slice(answers, func(i, j int) bool {
		if answers[i].Upper != answers[j].Upper {
			return answers[i].Upper > answers[j].Upper
		}
		if answers[i].Lower != answers[j].Lower {
			return answers[i].Lower > answers[j].Lower
		}
		return slices.Compare(answers[i].Values, answers[j].Values) < 0
	})
}
