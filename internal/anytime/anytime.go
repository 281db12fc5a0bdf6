// Package anytime evaluates a query as a monotonically tightening
// [lower, upper] probability interval, exploiting the paper's central
// asymmetry: every minimal dissociation plan's propagation score is a
// guaranteed upper bound on the true probability (Corollary 19), while
// exact model counting and lineage-based Monte Carlo bound it from below.
// Refinement orders its stages by certainty and cost — deterministic
// bounds first, sampling for the residue —
//
//	plans: evaluate minimal plans cheapest-first (engine.PlanCost);
//	       upper = min over plan scores, which only decreases. Safe
//	       queries collapse immediately (the plan score is exact).
//	exact: the first pass. The semi-join-reduced lineage is built once;
//	       every answer whose lineage is at most FirstPassMaxClauses
//	       clauses gets one exact attempt under a node budget
//	       proportional to its size, which collapses its interval or is
//	       abandoned for less than one sampling round would have cost.
//	mc:    Karp–Luby sampling of what the first pass did not collapse,
//	       with a resumable per-answer sampler; lower rises to the
//	       one-sided confidence bound estimate − z·stderr, never past
//	       upper. The only stage whose bound is statistical
//	       (Answer.LowerKind says so).
//	exact: budgeted weighted model counting over a growing prefix of
//	       the lineage clauses (heaviest first). P(prefix) is a
//	       deterministic lower bound by monotonicity; covering every
//	       clause collapses the interval to the exact probability.
//
// — stopping as soon as every answer's width reaches epsilon, the
// context's deadline fires, or the row budget is exhausted. The
// best-so-far interval is always returned: a deadline or budget after
// at least one completed refinement step degrades the result (Degraded
// marks why) instead of discarding the work.
package anytime

import (
	"context"
	"errors"
	"hash/fnv"
	"math/rand"
	"sort"

	"lapushdb/internal/cq"
	"lapushdb/internal/engine"
	"lapushdb/internal/exact"
	"lapushdb/internal/mc"
	"lapushdb/internal/plan"
)

// Refinement constants; DefaultMCMaxSamples is the default of Config's
// MCMaxSamples, the rest are fixed. The MC stage samples in rounds of
// DefaultMCBatch, doubling up to 8192.
const (
	DefaultMCBatch      = 256
	DefaultMCMaxSamples = 1 << 16
	// DefaultMCZ is the z of the MC stage's one-sided confidence lower
	// bound (estimate − z·stderr). 6 sigma puts the per-bound violation
	// probability near 1e-9: the bound is evaluated once per answer per
	// round, and the sandwich property test asserts lower <= exact over
	// thousands of such evaluations — at z=4 (p ≈ 3e-5) a fixed seed can
	// land on a violation.
	DefaultMCZ = 6.0
	// DefaultExactBudget is the final exact stage's solver node budget
	// per answer and step — deliberately smaller than the exact method's
	// budget, since the stage runs per refinement round.
	DefaultExactBudget = 2_000_000
	// DefaultExactPrefix is the final exact stage's initial clause prefix
	// length (quadrupling each round).
	DefaultExactPrefix = 8
	// FirstPassMaxClauses admits a lineage to the first exact pass, whose
	// node budget is exact.NodesPerClause per clause. Both are sized so
	// that an abandoned attempt costs no more than the first Karp–Luby
	// round (DefaultMCBatch samples) on the same lineage: a node costs
	// time linear in the clauses, so a budget linear in the clauses is
	// quadratic work against a sampling round's linear work, and the pass
	// has to stop admitting where the two cross (DESIGN.md "Anytime
	// bounds" has the measurement).
	FirstPassMaxClauses = 128
)

// LowerStatistical is the LowerKind of an answer whose lower bound was
// last raised by Karp–Luby sampling: a one-sided DefaultMCZ-sigma
// confidence bound, not a certainty. Every other lower bound — 0, a safe
// plan's score, an exact probability, an exact prefix — is certain and
// has the empty kind.
const LowerStatistical = "statistical"

// Config parameterizes one anytime evaluation.
type Config struct {
	// Epsilon is the target interval width: refinement stops once every
	// answer's upper − lower <= Epsilon. Zero demands exact collapse.
	Epsilon float64
	// Engine options for the plan stage, mirroring lapushdb.Options.
	ReuseSubplans       bool
	SemiJoin            bool
	MaxIntermediateRows int
	// Safe marks the query safe: its single plan computes the exact
	// probability, so the interval collapses after the first plan.
	Safe bool
	// Memo, when non-nil, shares subplan results (and the batch row
	// budget) with other evaluations of one batch. When nil the
	// evaluation's own evaluator runs every stage under its own row
	// budget.
	Memo *engine.BatchMemo
	// Scope is ignored. The field only keeps perfbench/api.go compiling
	// and is removed by the next benchmark issue.
	Scope string
	// MCMaxSamples caps the MC stage's samples per answer.
	MCMaxSamples int
	// Seed derives the per-answer sampler seeds (seed ^ FNV of the
	// answer key), keeping sampling independent of iteration order.
	Seed int64
	// OnStage, when non-nil, observes the interval state after every
	// refinement step (one plan, one MC round, one exact round). The
	// snapshot's answers are copies; the callback must not retain or
	// race — it is called synchronously.
	OnStage func(Snapshot)
}

// Answer is one query answer with its probability interval.
type Answer struct {
	Key   []engine.Value
	Lower float64
	Upper float64
	// Converged reports width <= epsilon for this answer.
	Converged bool
	// LowerKind is LowerStatistical when Lower is a sampling confidence
	// bound, "" when it is certain. Upper is always certain.
	LowerKind string
}

// StageStats reports one refinement stage's work.
type StageStats struct {
	Name  string // "plans", "mc", "exact" (the first pass and the final stage)
	Steps int    // refinement steps completed (plans, MC rounds, exact rounds)
}

// Snapshot is the interval state handed to Config.OnStage.
type Snapshot struct {
	Stage   string
	Answers []Answer
}

// Result is the outcome of one anytime evaluation.
type Result struct {
	Cols    []cq.Var
	Answers []Answer
	// Converged reports whether every answer reached epsilon.
	Converged bool
	// Degraded is "" for a run that refined to its natural end,
	// "deadline" when the context's deadline fired mid-refinement, and
	// "budget" when the intermediate-row budget was exhausted — in both
	// cases after at least one completed refinement step, so the
	// intervals are valid, just wider than requested.
	Degraded       string
	Stages         []StageStats
	PlansTotal     int
	PlansEvaluated int
	MCSamples      int
}

// Width returns the widest answer interval (0 when there are no
// answers).
func (r *Result) Width() float64 {
	w := 0.0
	for _, a := range r.Answers {
		if d := a.Upper - a.Lower; d > w {
			w = d
		}
	}
	return w
}

// ansState is the per-answer refinement state.
type ansState struct {
	key        []engine.Value
	lower      float64
	upper      float64
	converged  bool
	lowerStat  bool      // lower was last raised by sampling
	clauses    [][]int32 // lineage; sorted heaviest clause first once sampling needs it
	sampler    *mc.KarpLubySampler
	exactStuck bool // exact solver exceeded its budget on this answer
}

func (a *ansState) width() float64 { return a.upper - a.lower }

// setLower raises the lower bound, clamped to [current lower, upper] so
// intervals only tighten and stay well-formed, and reports whether it
// moved: the caller that moved it knows what kind of bound it now is.
func (a *ansState) setLower(lb float64) bool {
	if lb > a.upper {
		lb = a.upper
	}
	if lb > a.lower {
		a.lower = lb
		return true
	}
	return false
}

// collapse sets both bounds to the exact probability p, clamped into the
// current interval so bounds never move the wrong way. The lower bound
// stays statistical only if it was, and p fell below it.
func (a *ansState) collapse(p float64) {
	if p > a.upper {
		p = a.upper
	}
	if p < a.lower {
		p = a.lower
	} else {
		a.lowerStat = false
	}
	a.lower, a.upper = p, p
}

// evaluation is one run's full state.
type evaluation struct {
	ctx     context.Context
	db      *engine.DB
	q       *cq.Query
	cfg     Config
	e       *engine.Evaluator // runs the plan rounds and the lineage; made by evaluator
	cols    []cq.Var
	answers []*ansState
	index   map[string]*ansState // value key -> answer; made by lookup
	kb      []byte               // lookup's key scratch
	res     *Result
	err     error // hard failure (cancellation): discard the result
}

// Evaluate runs the staged anytime refinement of q over db. plans are
// the query's minimal plans (any order; they are re-ordered cheapest
// first). The error is non-nil only when no refinement step completed —
// once a first plan has been evaluated, deadline and budget failures
// degrade the result instead.
func Evaluate(ctx context.Context, db *engine.DB, q *cq.Query, plans []plan.Node, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.MCMaxSamples <= 0 {
		cfg.MCMaxSamples = DefaultMCMaxSamples
	}
	ev := &evaluation{ctx: ctx, db: db, q: q, cfg: cfg, res: &Result{PlansTotal: len(plans)}}
	defer func() {
		if ev.e != nil {
			ev.e.Release()
		}
	}()

	if err := ev.stagePlans(plans); err != nil {
		return nil, err
	}
	for _, stage := range []func(){ev.buildLineage, ev.stageFirstPass, ev.stageMC, ev.stageExact} {
		if ev.res.Degraded != "" || ev.err != nil || ev.done() {
			break
		}
		stage()
	}
	if ev.err != nil {
		return nil, ev.err
	}
	return ev.finish(), nil
}

// degradeClass maps an evaluation error to the Degraded label, or ""
// for errors that must propagate (cancellation, internal failures).
func degradeClass(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, engine.ErrBudget):
		return "budget"
	}
	return ""
}

// stagePlans evaluates the minimal plans cheapest-first, tightening the
// upper bound with each one. The first plan must succeed (otherwise
// there is no interval to return); later failures degrade.
func (ev *evaluation) stagePlans(plans []plan.Node) error {
	costs := make([]float64, len(plans))
	idx := make([]int, len(plans))
	for i, p := range plans {
		costs[i] = engine.PlanCost(ev.db, p)
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return costs[idx[i]] < costs[idx[j]] })
	ordered := make([]plan.Node, len(plans))
	for i, j := range idx {
		ordered[i] = plans[j]
	}

	stage := StageStats{Name: "plans"}
	for _, p := range ordered {
		var r *engine.Result
		err := engine.TrapCancel(func() { r = ev.evaluator().Eval(p) })
		if err != nil {
			if stage.Steps == 0 {
				return err
			}
			if class := degradeClass(err); class != "" {
				ev.res.Degraded = class
				break
			}
			return err
		}
		if ev.answers == nil {
			ev.cols = r.Cols
			ev.answers = make([]*ansState, r.Len())
			for i := 0; i < r.Len(); i++ {
				ev.answers[i] = &ansState{key: r.Row(i), lower: 0, upper: r.Score(i)}
			}
		} else {
			var row []engine.Value
			for i := 0; i < r.Len(); i++ {
				row = r.AppendRow(row[:0], i)
				if a := ev.lookup(row); a != nil && r.Score(i) < a.upper {
					a.upper = r.Score(i)
					if a.lower > a.upper {
						a.lower = a.upper
					}
				}
			}
		}
		if ev.cfg.Safe {
			// A safe plan's score is the exact probability.
			for _, a := range ev.answers {
				a.lower = a.upper
			}
		}
		stage.Steps++
		ev.res.PlansEvaluated++
		ev.afterStep("plans")
		if ev.done() {
			break
		}
	}
	ev.res.Stages = append(ev.res.Stages, stage)
	return nil
}

// lookup returns the answer whose key is vals, or nil. Later plan rounds
// and the lineage list their rows in their own order, so they are matched
// to answers by value key (engine.AppendKey), through an index over the
// first plan's answers made on first use. The keys are distinct: equal
// keys come only from a query whose head holds every variable, which is
// safe and stops after the first plan.
func (ev *evaluation) lookup(vals []engine.Value) *ansState {
	if ev.index == nil {
		ev.index = make(map[string]*ansState, len(ev.answers))
		for _, a := range ev.answers {
			ev.kb = engine.AppendKey(ev.kb[:0], a.key)
			ev.index[string(ev.kb)] = a
		}
	}
	ev.kb = engine.AppendKey(ev.kb[:0], vals)
	return ev.index[string(ev.kb)]
}

// evaluator returns the evaluation's one evaluator, making it on first
// use. Its Opt3 reduction polls the context, so the first call must run
// inside TrapCancel. One evaluator keeps the reduction, the row budget
// and the pooled arena across every plan round and the lineage.
func (ev *evaluation) evaluator() *engine.Evaluator {
	if ev.e == nil {
		ev.e = engine.NewEvaluatorCtx(ev.ctx, ev.db, ev.q, engine.Options{
			ReuseSubplans:       ev.cfg.ReuseSubplans,
			SemiJoin:            ev.cfg.SemiJoin,
			MaxIntermediateRows: ev.cfg.MaxIntermediateRows,
			Memo:                ev.cfg.Memo,
		})
	}
	return ev.e
}

// fail records an error met after the first plan: a deadline or budget
// degrades the result, anything else (cancellation: the caller no longer
// wants it) discards it.
func (ev *evaluation) fail(err error) {
	if class := degradeClass(err); class != "" {
		ev.res.Degraded = class
	} else {
		ev.err = err
	}
}

// buildLineage computes the semi-join-reduced lineage once, for every
// stage after the plans, and hands each answer its clauses. It runs on
// the plans' evaluator, so its scans and joins are charged to the same
// row budget as the plans' operators.
func (ev *evaluation) buildLineage() {
	var lin *engine.Lineage
	err := engine.TrapCancel(func() { lin = ev.evaluator().Lineage(ev.q) })
	if err != nil {
		ev.fail(err)
		return
	}
	for i := 0; i < lin.Len(); i++ {
		if a := ev.lookup(lin.Key(i)); a != nil {
			a.clauses = lin.Clauses(i)
		}
	}
}

// stageFirstPass gives every admitted lineage one budgeted exact attempt
// before any sampling: certain and, on the lineages it admits, cheaper
// than the sampling round it replaces. An attempt that runs out of budget
// is abandoned — DPLL-style counting must blow up on some lineages — and
// the answer falls through to stageMC. The result is a function of the
// lineage alone, so it is independent of Seed.
func (ev *evaluation) stageFirstPass() {
	probs := ev.db.VarProbs()
	attempted := false
	for _, a := range ev.answers {
		if a.converged || len(a.clauses) == 0 || len(a.clauses) > FirstPassMaxClauses {
			continue
		}
		if err := ev.ctx.Err(); err != nil {
			ev.fail(err)
			break
		}
		attempted = true
		if p, err := exact.ProbBudget(a.clauses, probs, exact.NodesPerClause*len(a.clauses)); err == nil {
			a.collapse(p)
		}
	}
	if attempted {
		ev.res.Stages = append(ev.res.Stages, StageStats{Name: "exact", Steps: 1})
		ev.afterStep("exact")
	}
}

// stageMC raises the lower bounds by Karp–Luby sampling of the lineages
// the first pass left open, in rounds of a doubling sample batch.
func (ev *evaluation) stageMC() {
	probs := ev.db.VarProbs()
	stage := StageStats{Name: "mc"}
	for _, a := range ev.answers {
		if a.converged || len(a.clauses) == 0 {
			continue
		}
		a.clauses = sortClausesByWeight(a.clauses, probs)
		rng := rand.New(rand.NewSource(ev.cfg.Seed ^ keySeed(a.key)))
		a.sampler = mc.NewKarpLubySampler(a.clauses, probs, rng)
		if a.sampler.Exact() {
			// Trivial lineage: the sampler's value is exact.
			a.collapse(a.sampler.Estimate())
		}
	}
	batch := DefaultMCBatch
	for {
		active := false
		for _, a := range ev.answers {
			if a.converged || a.sampler == nil || a.sampler.Exact() {
				continue
			}
			if a.sampler.Samples() >= ev.cfg.MCMaxSamples {
				continue
			}
			active = true
			if err := a.sampler.Sample(ev.ctx, batch); err != nil {
				ev.fail(err)
				for _, b := range ev.answers {
					if b.sampler != nil {
						ev.res.MCSamples += b.sampler.Samples()
					}
				}
				ev.res.Stages = append(ev.res.Stages, stage)
				return
			}
			if a.setLower(a.sampler.LowerBound(DefaultMCZ)) {
				a.lowerStat = true
			}
		}
		if !active {
			break
		}
		stage.Steps++
		ev.afterStep("mc")
		if ev.done() {
			break
		}
		if batch < 8192 {
			batch *= 2
		}
	}
	for _, a := range ev.answers {
		if a.sampler != nil {
			ev.res.MCSamples += a.sampler.Samples()
		}
	}
	ev.res.Stages = append(ev.res.Stages, stage)
}

// stageExact raises the lower bounds by exact model counting over a
// growing prefix of each answer's lineage clauses, heaviest first:
// P(any prefix of a monotone DNF) <= P(the full DNF), so every prefix
// probability is a deterministic lower bound, and the full set collapses
// the interval.
func (ev *evaluation) stageExact() {
	probs := ev.db.VarProbs()
	stage := StageStats{Name: "exact"}
	defer func() { ev.res.Stages = append(ev.res.Stages, stage) }()
	m := DefaultExactPrefix
	for {
		progress := false
		for _, a := range ev.answers {
			if a.converged || a.exactStuck || len(a.clauses) == 0 {
				continue
			}
			if err := ev.ctx.Err(); err != nil {
				ev.fail(err)
				return
			}
			k := m
			if k > len(a.clauses) {
				k = len(a.clauses)
			}
			p, err := exact.ProbBudget(a.clauses[:k], probs, DefaultExactBudget)
			if err != nil {
				a.exactStuck = true
				continue
			}
			if k == len(a.clauses) {
				a.collapse(p)
			} else {
				if a.setLower(p) {
					a.lowerStat = false
				}
				progress = true
			}
		}
		stage.Steps++
		ev.afterStep("exact")
		if ev.done() || !progress {
			return
		}
		m *= 4
	}
}

// afterStep updates convergence flags and notifies the observer.
func (ev *evaluation) afterStep(stageName string) {
	for _, a := range ev.answers {
		if !a.converged && a.width() <= ev.cfg.Epsilon {
			a.converged = true
		}
	}
	if ev.cfg.OnStage != nil {
		ev.cfg.OnStage(Snapshot{Stage: stageName, Answers: ev.snapshotAnswers()})
	}
}

// done reports whether every answer has converged.
func (ev *evaluation) done() bool {
	if ev.answers == nil {
		return false
	}
	for _, a := range ev.answers {
		if !a.converged {
			return false
		}
	}
	return true
}

func (ev *evaluation) snapshotAnswers() []Answer {
	out := make([]Answer, len(ev.answers))
	for i, a := range ev.answers {
		out[i] = Answer{
			Key:       a.key,
			Lower:     a.lower,
			Upper:     a.upper,
			Converged: a.converged,
		}
		if a.lowerStat {
			out[i].LowerKind = LowerStatistical
		}
	}
	return out
}

func (ev *evaluation) finish() *Result {
	ev.res.Cols = ev.cols
	ev.res.Answers = ev.snapshotAnswers()
	ev.res.Converged = ev.done()
	return ev.res
}

// sortClausesByWeight orders clauses by descending probability weight
// (∏ of their variables' marginals), stably so equal weights keep the
// lineage order — a deterministic order for the exact stage's prefixes.
// The input is left as it was.
func sortClausesByWeight(clauses [][]int32, probs []float64) [][]int32 {
	ws := make([]float64, len(clauses))
	idx := make([]int, len(clauses))
	for i, c := range clauses {
		ws[i] = 1
		for _, v := range c {
			ws[i] *= probs[v]
		}
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return ws[idx[i]] > ws[idx[j]] })
	sorted := make([][]int32, len(clauses))
	for i, j := range idx {
		sorted[i] = clauses[j]
	}
	return sorted
}

// keySeed derives a per-answer seed component from the answer key, so
// sampling streams are a function of the answer alone — independent of
// iteration order, worker count, and which other answers converge first.
func keySeed(vals []engine.Value) int64 {
	h := fnv.New64a()
	h.Write(engine.AppendKey(make([]byte, 0, 8*len(vals)), vals))
	return int64(h.Sum64())
}
