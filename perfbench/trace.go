package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lapushdb/internal/anytime"
	"lapushdb/internal/bench"
	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
	"lapushdb/internal/store"
)

// span is one timed interval of the traced pass. Spans of one request
// share Req. A span whose Parent is not -1 decomposes its parent.
//
// For the server workloads this is an EXTERNAL decomposition: the
// request span is the HTTP call, and its children are the harness
// calling each layer's public function directly, on the same query over
// the parity-asserted copy of the same data, after the reply arrived.
// A child's time is the layer's time when called directly on that input,
// not a measurement taken inside the server; the request's self time
// (span minus children) is what the direct calls leave unexplained and is
// attributed to the server layer. Spans recorded inside the program are
// ROADMAP item 2.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the traced pass began
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the parent span, -1 for a root
	Req     int64  `json:"req"`
	Kind    string `json:"kind"` // "measured" or "external": see above
}

// tracer keeps spans in memory; they are written out when the pass ends.
// It is used by one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, req int64, kind string) int {
	t.spans = append(t.spans, span{Name: name, StartNS: int64(time.Since(t.t0)), Parent: parent, Req: req, Kind: kind})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.EndNS = int64(time.Since(t.t0))
	return time.Duration(s.EndNS - s.StartNS)
}

// add records a span of known duration ending now.
func (t *tracer) add(name string, parent int, req int64, kind string, d time.Duration) {
	end := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{Name: name, StartNS: end - int64(d), EndNS: end, Parent: parent, Req: req, Kind: kind})
}

// in runs f inside a child span.
func (t *tracer) in(name string, parent int, req int64, f func() error) error {
	id := t.begin(name, parent, req, "external")
	err := f()
	t.end(id)
	return err
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one line of the per-layer table: a span name's count,
// median duration and median self time (duration minus its children's).
type layerRow struct {
	Name           string
	N              int
	MedianMS       float64
	MedianSelfMS   float64
	TotalSelfShare float64 // share of all root-span time spent in this name's self time
}

func (t *tracer) table() []layerRow {
	children := make([]int64, len(t.spans))
	var rootTotal int64
	for _, s := range t.spans {
		d := s.EndNS - s.StartNS
		if s.Parent >= 0 {
			children[s.Parent] += d
		} else {
			rootTotal += d
		}
	}
	type acc struct {
		dur, self []float64
		selfTotal int64
	}
	byName := map[string]*acc{}
	var order []string
	for i, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &acc{}
			byName[s.Name] = a
			order = append(order, s.Name)
		}
		d := s.EndNS - s.StartNS
		self := d - children[i]
		a.dur = append(a.dur, float64(d)/1e6)
		a.self = append(a.self, float64(self)/1e6)
		a.selfTotal += self
	}
	sort.Strings(order)
	rows := make([]layerRow, 0, len(order))
	for _, name := range order {
		a := byName[name]
		row := layerRow{Name: name, N: len(a.dur), MedianMS: median(a.dur), MedianSelfMS: median(a.self)}
		if rootTotal > 0 {
			row.TotalSelfShare = float64(a.selfTotal) / float64(rootTotal)
		}
		rows = append(rows, row)
	}
	return rows
}

// engineShare is the median, over the request spans, of the share of the
// request that its engine.* children cover.
func (t *tracer) engineShare() float64 {
	engine := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && strings.HasPrefix(s.Name, "engine.") {
			engine[s.Parent] += s.EndNS - s.StartNS
		}
	}
	var shares []float64
	for i, s := range t.spans {
		if s.Parent < 0 {
			shares = append(shares, float64(engine[i])/float64(s.EndNS-s.StartNS))
		}
	}
	return median(shares)
}

// runTraced is the --trace 1 run: one set-up; a warm-up and a window with
// spans off at one client (the baseline the traced replay is compared
// with, and the window the cache and checkpoint counters are scraped
// over); the traced replay of the workload's first requests; the layer
// probes when asked for; the durability check. It writes the spans as
// JSONL, prints the per-layer table, and reports the per-layer metrics.
func runTraced(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := newResult(cfg, true)
	var e *env
	var f *fig5
	if cfg.Workload != wlPaperFig5 || cfg.Probes {
		var err error
		if e, err = setup(cfg.Scale, runDir(cfg.Work, 0)); err != nil {
			return nil, err
		}
		defer e.Close()
		if err := e.attachCopies(); err != nil {
			return nil, err
		}
	}
	if cfg.Workload == wlPaperFig5 || cfg.Probes {
		f = buildFig5(cfg.Scale)
	}

	tr := newTracer()
	var err error
	if cfg.Workload == wlPaperFig5 {
		err = traceFig5(ctx, cfg, f, res, tr)
	} else {
		err = traceServer(ctx, cfg, e, res, tr)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Probes {
		if err := runProbes(ctx, cfg, e, f, res); err != nil {
			return nil, err
		}
	}
	if e != nil {
		reopenMS, err := e.checkDurability()
		if err != nil {
			res.problem("%v", err)
		}
		if replayOn("store.reopen_ms", cfg.Workload) {
			res.set("store.reopen_ms", reopenMS)
		}
	}

	path := filepath.Join(cfg.Work, "spans.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	cfg.logf("%s: %d spans written to %s", cfg.Workload, len(tr.spans), path)
	cfg.logf("per-layer table of the traced replay (external decomposition; self = span − children):")
	cfg.logf("%-28s %6s %12s %12s %8s", "span", "n", "median_ms", "self_ms", "share")
	for _, row := range tr.table() {
		cfg.logf("%-28s %6d %12.4f %12.4f %7.1f%%", row.Name, row.N, row.MedianMS, row.MedianSelfMS, 100*row.TotalSelfShare)
	}
	res.finish()
	return res, nil
}

// traceOffset is the stream index the traced replay starts at: far
// beyond any index a window can reach, so the replayed requests are as
// new to the server's caches as the window's were (replaying indices the
// window already sent would turn every anytime_cold request into a
// result-cache hit), and a multiple of writeEvery, so mixed_rw keeps its
// one write in eight.
const traceOffset = int64(1) << 20

// traceServer runs the spans-off window and the traced replay of a
// server workload and sets the replay's per-layer metrics.
func traceServer(ctx context.Context, cfg runConfig, e *env, res *runResult, tr *tracer) error {
	s, err := newStream(cfg.Workload, cfg.Scale, cfg.Seed)
	if err != nil {
		return err
	}
	w, before, after, err := e.warmAndMeasure(cfg, s, 1, res)
	if err != nil {
		return err
	}
	res.set("server.result_cache_hit_ratio", hitRatio(before, after, "result_cache"))
	res.set("server.plan_cache_hit_ratio", hitRatio(before, after, "plan_cache"))
	res.set("store.checkpoints", after["lapushd_store_checkpoints_total"]-before["lapushd_store_checkpoints_total"])
	res.set("server.request_p99_ms", ms(w.reads.Quantile(0.99)))
	res.set("bench.ops", float64(w.ok()))
	kb := 0.0
	if w.ok() > 0 {
		kb = float64(w.respBytes) / 1024 / float64(w.ok())
	}
	res.set("server.response_kb", kb)
	if cfg.Workload == wlMixedRW {
		// The ingest acks of the window: at one client an ack never queues
		// behind a read, so this is the write path's own latency.
		if w.writes.Len() == 0 {
			res.problem("no ingest ack was measured")
		}
		res.set("write_p50_ms", ms(w.writes.Quantile(0.50)))
		res.set("write_p95_ms", ms(w.writes.Quantile(0.95)))
		res.Samples["write_p50_ms"], res.Samples["write_p95_ms"] = w.writes.Len(), w.writes.Len()
	}

	// The scratch store the replay's writes are applied to directly: the
	// same data, the same durability settings, its own directory.
	var scratch *store.Store
	defer func() {
		if scratch != nil {
			scratch.Close()
		}
	}()

	var requests, residual bench.Histogram
	var failed int64
	var firstErr error
	for i := traceOffset; i < traceOffset+int64(cfg.Scale.TraceRequests); i++ {
		r := s(i)
		root := tr.begin("request", -1, i, "measured")
		body, _, err := e.send(r)
		total := tr.end(root)
		if err == nil {
			var children time.Duration
			switch r.Kind {
			case opWrite:
				if scratch == nil {
					if scratch, err = e.scratchStore(filepath.Join(cfg.Work, "trace-store"), store.FsyncAlways); err != nil {
						return err
					}
				}
				children, err = traceWrite(tr, root, i, scratch, r)
			default:
				children, err = traceRead(ctx, tr, root, i, e, r, body)
				requests.Add(total)
			}
			if err == nil {
				residual.Add(total - children)
			}
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	res.count(int64(cfg.Scale.TraceRequests), failed, firstErr)
	res.set("server.overhead_ms", ms(residual.Quantile(0.5)))
	ratio := 0.0
	if base := w.reads.Quantile(0.5); base > 0 {
		ratio = float64(requests.Quantile(0.5)) / float64(base)
	}
	res.set("bench.trace_overhead_ratio", ratio)

	if cfg.Workload == wlRankCold {
		// The prediction rank_cold was built on (ISSUE 11): the engine's
		// two stages, called directly, explain most of a request. Taken
		// per request: the family mixes two query shapes, so a sum of
		// medians is not the median of the sums.
		share := tr.engineShare()
		cfg.logf("rank_cold: engine spans are %.1f%% of the median traced request", 100*share)
		if share < cfg.Scale.MinEngineShare {
			res.problem("rank_cold: semi-join reduce + plan evaluation are %.1f%% of the median traced request, below %.0f%%: the workload no longer measures the engine",
				100*share, 100*cfg.Scale.MinEngineShare)
		}
	}
	return nil
}

// traceRead records, under a read's request span, the direct calls into
// the layers the server went through to answer it — which the reply
// itself tells: a result-cache hit evaluated nothing, a plan-cache hit
// enumerated nothing. It returns the children's total time.
func traceRead(ctx context.Context, tr *tracer, root int, req int64, e *env, r request, body []byte) (time.Duration, error) {
	var reply struct {
		Cache       string `json:"cache"`
		ResultCache string `json:"result_cache"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return 0, err
	}
	first := len(tr.spans)
	var q *cq.Query
	if err := tr.in("cq.parse", root, req, func() (err error) {
		q, err = apiParse(r.Query)
		return err
	}); err != nil {
		return 0, err
	}
	sch := apiSchemaFor(e.edb, q)
	var plans []plan.Node
	enumerate := func() error { plans = apiMinimalPlans(q, sch); return nil }
	if reply.Cache == "miss" {
		_ = tr.in("core.minimal_plans", root, req, enumerate)
	} else {
		_ = enumerate()
	}
	if reply.ResultCache == "miss" {
		switch r.Kind {
		case opRank:
			var reduced map[string][]int32
			if err := tr.in("engine.semijoin_reduce", root, req, func() (err error) {
				reduced, err = apiSemiJoinReduce(ctx, e.edb, q)
				return err
			}); err != nil {
				return 0, err
			}
			if err := tr.in("engine.eval_plans", root, req, func() error {
				_, err := apiEvalPlans(ctx, e.edb, q, plans, reduced, 1, nil)
				return err
			}); err != nil {
				return 0, err
			}
		case opAnytime:
			id := tr.begin("anytime.evaluate", root, req, "external")
			last := time.Now()
			_, err := apiAnytime(ctx, e.edb, q, plans, apiIsSafe(q, sch), r.Epsilon, r.Samples, r.Seed, func(s anytime.Snapshot) {
				now := time.Now()
				tr.add("anytime.stage_"+s.Stage, id, req, "external", now.Sub(last))
				last = now
			})
			tr.end(id)
			if err != nil {
				return 0, err
			}
		}
	}
	var children time.Duration
	for _, s := range tr.spans[first:] {
		if s.Parent == root {
			children += time.Duration(s.EndNS - s.StartNS)
		}
	}
	return children, nil
}

// traceWrite applies the request's mutation batch directly to the
// scratch durable store under the request span.
func traceWrite(tr *tracer, root int, req int64, scratch *store.Store, r request) (time.Duration, error) {
	var b struct {
		Mutations []store.Mutation `json:"mutations"`
	}
	if err := json.Unmarshal(r.Body, &b); err != nil {
		return 0, err
	}
	id := tr.begin("store.apply", root, req, "external")
	_, err := apiApply(scratch, b.Mutations)
	return tr.end(id), err
}

// traceFig5 is paper_fig5's spans-off window and traced replay. Its
// spans are truly nested: each pass span contains the plan search and
// the evaluation of every cell.
func traceFig5(ctx context.Context, cfg runConfig, f *fig5, res *runResult, tr *tracer) error {
	if _, _, err := f.alternate(ctx, until(cfg.warmup())); err != nil {
		return err
	}
	diss, det, err := f.alternate(ctx, until(cfg.window()))
	if err != nil {
		return err
	}
	res.count(int64(diss.Len()+det.Len()), 0, nil)
	res.set("bench.ops", float64(diss.Len()))
	res.set("server.request_p99_ms", ms(diss.Quantile(0.99)))
	// The paper's headline: median Opt1-2-3 pass ÷ median deterministic
	// pass over the same cells.
	res.set("diss_over_det", float64(diss.Quantile(0.5))/float64(det.Quantile(0.5)))
	res.Samples["diss_over_det"] = diss.Len()
	var traced bench.Histogram
	passes := max(cfg.Scale.TraceRequests/4, 1)
	for i := int64(0); i < int64(passes); i++ {
		root := tr.begin("fig5.pass", -1, i, "measured")
		for _, c := range f.cells {
			id := tr.begin("core.single_plan", root, i, "measured")
			sp := apiSinglePlan(c.Q, nil)
			tr.end(id)
			id = tr.begin("engine.eval_single_plan", root, i, "measured")
			_, err := apiEvalSinglePlan(ctx, c.DB, c.Q, sp)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		traced.Add(tr.end(root))
		root = tr.begin("fig5.det_pass", -1, i, "measured")
		for _, c := range f.cells {
			id := tr.begin("engine.eval_deterministic", root, i, "measured")
			_, err := apiEvalDeterministic(ctx, c.DB, c.Q)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		tr.end(root)
	}
	res.count(int64(2*passes), 0, nil)
	ratio := 0.0
	if base := diss.Quantile(0.5); base > 0 {
		ratio = float64(traced.Quantile(0.5)) / float64(base)
	}
	res.set("bench.trace_overhead_ratio", ratio)
	return nil
}
