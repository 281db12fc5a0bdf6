package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"lapushdb/internal/anytime"
	"lapushdb/internal/cq"
	"lapushdb/internal/engine"
	"lapushdb/internal/store"
)

// The layer probes time calls into each layer's public functions from
// outside, on inputs drawn from the workloads' own streams (for the
// run's seed) over the parity-asserted copy of the served data. They do
// not depend on which workload the traced run belongs to, so the suite
// runs them once. Each metric is the median over its sample.

// timesMS collects one duration per call of f over n calls.
func timesMS(n int, f func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// probeSample is how many stream requests a probe draws per repetition
// count: the rank_cold and anytime_cold samples are 2·ProbeReps queries.
func probeSample(cfg runConfig, workload string) ([]request, error) {
	s, err := newStream(workload, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return firstReads(s, 2*cfg.Scale.ProbeReps), nil
}

func runProbes(ctx context.Context, cfg runConfig, e *env, f *fig5, res *runResult) error {
	if err := probeFig5(ctx, cfg, f, res); err != nil {
		return err
	}
	for _, probe := range []func(context.Context, runConfig, *env, *runResult) error{
		probeFrontEnd, probeRank, probeAnytime, probeStore, probeServer,
	} {
		if err := probe(ctx, cfg, e, res); err != nil {
			return err
		}
	}
	return nil
}

// probeFrontEnd: cq and core on the served queries. Parsing on the
// rank_hot pool (where it is a visible share of a cache hit), plan
// enumeration on the 3-atom rank_cold queries (2 minimal plans each:
// negligible, and this proves it).
func probeFrontEnd(ctx context.Context, cfg runConfig, e *env, res *runResult) error {
	pool := hotPool(cfg.Scale)
	parse, err := timesMS(len(pool)*cfg.Scale.ProbeReps, func(i int) error {
		_, err := apiParse(pool[i%len(pool)])
		return err
	})
	if err != nil {
		return err
	}
	res.set("cq.parse_us", 1000*median(parse))

	cold, err := probeSample(cfg, wlRankCold)
	if err != nil {
		return err
	}
	var plansPer []float64
	enum, err := timesMS(len(cold), func(i int) error {
		q, err := apiParse(cold[i].Query)
		if err != nil {
			return err
		}
		plansPer = append(plansPer, float64(len(apiMinimalPlans(q, apiSchemaFor(e.edb, q)))))
		return nil
	})
	if err != nil {
		return err
	}
	res.set("core.minimal_plans_us", 1000*median(enum))
	res.set("core.plans_per_query", mean(plansPer))

	return nil
}

// probeRank: lapushdb and engine on the rank_cold sample — the public
// prepare/rank path the server takes on a double cache miss, and the
// engine's two stages called directly at one and two workers.
func probeRank(ctx context.Context, cfg runConfig, e *env, res *runResult) error {
	cold, err := probeSample(cfg, wlRankCold)
	if err != nil {
		return err
	}
	var prepare, rank, reduce, w1, w2, allocs, kb, parts, answers []float64
	for _, r := range cold {
		t0 := time.Now()
		p, err := apiPrepare(ctx, e.local, r.Query)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := apiRankPrepared(ctx, e.local, p); err != nil {
			return err
		}
		t2 := time.Now()
		prepare = append(prepare, 1000*ms(t1.Sub(t0)))
		rank = append(rank, ms(t2.Sub(t1)))

		q, err := apiParse(r.Query)
		if err != nil {
			return err
		}
		plans := apiMinimalPlans(q, apiSchemaFor(e.edb, q))
		t3 := time.Now()
		reduced, err := apiSemiJoinReduce(ctx, e.edb, q)
		if err != nil {
			return err
		}
		reduce = append(reduce, ms(time.Since(t3)))

		stats := &engine.EvalStats{}
		mem0 := readMem()
		t4 := time.Now()
		out, err := apiEvalPlans(ctx, e.edb, q, plans, reduced, 1, stats)
		if err != nil {
			return err
		}
		w1 = append(w1, ms(time.Since(t4)))
		mem1 := readMem()
		allocs = append(allocs, float64(mem1.mallocs-mem0.mallocs))
		kb = append(kb, float64(mem1.bytes-mem0.bytes)/1024)
		parts = append(parts, float64(stats.Partitions()))
		answers = append(answers, float64(out.Len()))

		t5 := time.Now()
		if _, err := apiEvalPlans(ctx, e.edb, q, plans, reduced, 2, nil); err != nil {
			return err
		}
		w2 = append(w2, ms(time.Since(t5)))
	}
	res.set("lapushdb.prepare_us", median(prepare))
	res.set("lapushdb.rank_prepared_ms", median(rank))
	res.set("engine.semijoin_reduce_ms", median(reduce))
	res.set("engine.eval_plans_w1_ms", median(w1))
	res.set("engine.eval_plans_w2_ms", median(w2))
	res.set("engine.allocs_per_eval", mean(allocs))
	res.set("engine.kb_per_eval", mean(kb))
	res.set("engine.partitions_per_query", mean(parts))
	res.set("engine.answers_per_query", mean(answers))
	return nil
}

// probeFig5: core and the engine on the paper's cells — the plan search
// on the 7- and 8-chain (132 and 429 minimal plans: where core is not
// negligible), Opt1-2-3 against all minimal plans on the 7-chain
// (Fig. 5b), the deterministic pass that is diss_over_det's denominator,
// and the Fig. 5d sweep over chain length.
func probeFig5(ctx context.Context, cfg runConfig, f *fig5, res *runResult) error {
	chains := make(map[int]fig5Cell)
	for k := 2; k <= 8; k++ {
		chains[k] = fig5Chain(cfg.Scale, k, 0)
	}
	search, err := timesMS(cfg.Scale.ProbeReps, func(int) error {
		apiSinglePlan(chains[7].Q, nil)
		apiSinglePlan(chains[8].Q, nil)
		return nil
	})
	if err != nil {
		return err
	}
	res.set("core.single_plan_ms", median(search))

	b := chains[7]
	single, err := timesMS(cfg.Scale.ProbeReps, func(int) error {
		_, err := apiEvalSinglePlan(ctx, b.DB, b.Q, apiSinglePlan(b.Q, nil))
		return err
	})
	if err != nil {
		return err
	}
	res.set("engine.eval_single_plan_ms", median(single))

	plans := apiMinimalPlans(b.Q, nil)
	all, err := timesMS(max(cfg.Scale.ProbeReps/3, 1), func(int) error {
		_, err := apiEvalPlans(ctx, b.DB, b.Q, plans, nil, 1, nil)
		return err
	})
	if err != nil {
		return err
	}
	res.set("engine.eval_all_plans_ms", median(all))

	det, err := timesMS(cfg.Scale.ProbeReps, func(int) error {
		_, err := f.detPass(ctx)
		return err
	})
	if err != nil {
		return err
	}
	res.set("engine.eval_deterministic_ms", median(det))

	for k := 2; k <= 8; k++ {
		c := chains[k]
		ts, err := timesMS(cfg.Scale.ProbeReps, func(int) error {
			_, err := apiEvalSinglePlan(ctx, c.DB, c.Q, apiSinglePlan(c.Q, nil))
			return err
		})
		if err != nil {
			return err
		}
		res.set(fig5dName(k), median(ts))
	}
	return nil
}

// probeAnytime: anytime, mc and exact on the anytime_cold sample — the
// whole refinement with its stages timed between OnStage callbacks, then
// the lineage it refines, and the two lower-bound engines run directly
// on every answer's lineage.
func probeAnytime(ctx context.Context, cfg runConfig, e *env, res *runResult) error {
	sample, err := probeSample(cfg, wlAnytimeCold)
	if err != nil {
		return err
	}
	var evaluate, lineage, exactMS, klPerK, plansEval, mcSamples, widths []float64
	stage := map[string][]float64{}
	converged := 0
	for _, r := range sample {
		q, err := apiParse(r.Query)
		if err != nil {
			return err
		}
		sch := apiSchemaFor(e.edb, q)
		plans := apiMinimalPlans(q, sch)
		perStage := map[string]time.Duration{}
		t0 := time.Now()
		last := t0
		out, err := apiAnytime(ctx, e.edb, q, plans, apiIsSafe(q, sch), r.Epsilon, r.Samples, r.Seed, func(s anytime.Snapshot) {
			now := time.Now()
			perStage[s.Stage] += now.Sub(last)
			last = now
		})
		if err != nil {
			return err
		}
		evaluate = append(evaluate, ms(time.Since(t0)))
		for _, name := range []string{"plans", "mc", "exact"} {
			stage[name] = append(stage[name], ms(perStage[name]))
		}
		plansEval = append(plansEval, float64(out.PlansEvaluated))
		mcSamples = append(mcSamples, float64(out.MCSamples))
		widths = append(widths, out.Width())
		if out.Converged {
			converged++
		}

		lin, lineageMS, err := probeLineage(ctx, e, q)
		if err != nil {
			return err
		}
		lineage = append(lineage, lineageMS)
		probs := e.edb.VarProbs()
		for i := 0; i < lin.Len(); i++ {
			clauses := lin.Clauses(i)
			t1 := time.Now()
			apiExactProb(clauses, probs)
			t2 := time.Now()
			if _, err := apiKarpLuby(ctx, clauses, probs, anytimeSamples, r.Seed); err != nil {
				return err
			}
			exactMS = append(exactMS, ms(t2.Sub(t1)))
			klPerK = append(klPerK, 1000*ms(time.Since(t2))/(float64(anytimeSamples)/1000))
		}
	}
	res.set("anytime.evaluate_ms", median(evaluate))
	// Stage times are means, not medians: the exact stage runs only for
	// the requests the sample cap keeps Monte Carlo from converging, a
	// minority whose cost a median would report as zero.
	res.set("anytime.stage_plans_ms", mean(stage["plans"]))
	res.set("anytime.stage_mc_ms", mean(stage["mc"]))
	res.set("anytime.stage_exact_ms", mean(stage["exact"]))
	res.set("anytime.plans_evaluated_per_query", mean(plansEval))
	res.set("anytime.mc_samples_per_query", mean(mcSamples))
	res.set("anytime.converged_ratio", float64(converged)/float64(len(sample)))
	res.set("anytime.width_p50", median(widths))
	res.set("engine.eval_lineage_ms", median(lineage))
	res.set("mc.karp_luby_us_per_ksample", median(klPerK))
	res.set("exact.prob_ms", median(exactMS))
	return nil
}

func probeLineage(ctx context.Context, e *env, q *cq.Query) (*engine.Lineage, float64, error) {
	reduced, err := apiSemiJoinReduce(ctx, e.edb, q)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	lin, err := apiEvalLineage(ctx, e.edb, q, reduced)
	return lin, ms(time.Since(t0)), err
}

// probeStore: Store.Apply of the ingest batch under both fsync policies
// (the difference is the fsync), the WAL bytes one batch costs per byte
// of its mutation JSON, and an explicit checkpoint — the periodic spike
// (every 256 batches by default) a write median hides.
func probeStore(ctx context.Context, cfg runConfig, e *env, res *runResult) error {
	ws, err := newStream(wlMixedRW, cfg.Scale, cfg.Seed)
	if err != nil {
		return err
	}
	batch := func(i int) ([]store.Mutation, int, error) {
		var b struct {
			Mutations []store.Mutation `json:"mutations"`
		}
		body := ws(int64(i) * writeEvery).Body
		err := json.Unmarshal(body, &b)
		return b.Mutations, len(mustJSON(b.Mutations)), err
	}
	n := 4 * cfg.Scale.ProbeReps
	apply := func(name string, fsync store.FsyncPolicy) (*store.Store, []float64, []float64, error) {
		st, err := e.scratchStore(filepath.Join(cfg.Work, name), fsync)
		if err != nil {
			return nil, nil, nil, err
		}
		var amp []float64
		ts, err := timesMS(n, func(i int) error {
			muts, size, err := batch(i)
			if err != nil {
				return err
			}
			before := st.Stats().WALBytes
			if _, err := apiApply(st, muts); err != nil {
				return err
			}
			amp = append(amp, float64(st.Stats().WALBytes-before)/float64(size))
			return nil
		})
		if err != nil {
			st.Close()
			return nil, nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		return st, ts, amp, nil
	}
	durable, ts, amp, err := apply("probe-store-fsync", store.FsyncAlways)
	if err != nil {
		return err
	}
	defer durable.Close()
	res.set("store.apply_ms", median(ts))
	res.set("store.wal_bytes_per_batch", median(amp))
	lazy, ts, _, err := apply("probe-store-nofsync", store.FsyncNever)
	if err != nil {
		return err
	}
	lazy.Close()
	res.set("store.apply_nofsync_ms", median(ts))

	ckpt, err := timesMS(max(cfg.Scale.ProbeReps/3, 1), func(int) error {
		return apiCheckpoint(durable)
	})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	res.set("store.checkpoint_ms", median(ckpt))
	return nil
}

// probeServer: the server's own cost, isolated by requests that make the
// layers below it do nothing — /healthz (the HTTP floor), a result-cache
// hit cut to one answer (decode → normalize → cache → encode of almost
// nothing) and the same hit uncut (the difference is encoding the answer
// list).
func probeServer(ctx context.Context, cfg runConfig, e *env, res *runResult) error {
	n := 10 * cfg.Scale.ProbeReps
	health, err := timesMS(n, func(int) error {
		status, _, err := e.get("/healthz")
		if err == nil && status != 200 {
			err = fmt.Errorf("healthz status %d", status)
		}
		return err
	})
	if err != nil {
		return err
	}
	res.set("server.healthz_us", 1000*median(health))

	query := hotPool(cfg.Scale)[0]
	full, cut := rankRequest(query, 0), rankRequest(query, 1)
	body, _, err := e.send(full) // fills the result cache for both forms
	if err != nil {
		return err
	}
	var reply struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(body, &reply); err != nil || reply.Count == 0 {
		return fmt.Errorf("server probe: hot query returned no answers (%v)", err)
	}
	// Timed around the bare HTTP exchange: the shape check's JSON scan
	// would otherwise be billed to the server per answer.
	hit := func(r request) (float64, error) {
		ts, err := timesMS(n, func(int) error {
			status, _, err := e.do(r)
			if err == nil && status != 200 {
				err = fmt.Errorf("hit probe status %d", status)
			}
			return err
		})
		return 1000 * median(ts), err
	}
	cutUS, err := hit(cut)
	if err != nil {
		return err
	}
	fullUS, err := hit(full)
	if err != nil {
		return err
	}
	res.set("server.hit_path_us", cutUS)
	res.set("server.encode_us_per_answer", (fullUS-cutUS)/float64(reply.Count))
	return nil
}
