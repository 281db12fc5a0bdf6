package exp

import (
	"fmt"
	"math/rand"
	"sort"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/engine"
	"lapushdb/internal/exact"
	"lapushdb/internal/mc"
	"lapushdb/internal/plan"
	"lapushdb/internal/rank"
	"lapushdb/internal/workload"
)

// rankingRun holds everything needed to score one experiment instance:
// the ground truth and the competing rankings, aligned by answer index.
type rankingRun struct {
	keys    []string
	gt      []float64
	diss    []float64
	linSize []float64
	clauses [][][]int32
	probs   []float64
	// avgPaTop10 is the mean ground-truth probability of the top-10
	// answers; maxPa the maximum over all answers.
	avgPaTop10 float64
	maxPa      float64
}

// newRankingRun evaluates ground truth (exact), dissociation, and
// lineage size for the query over db. It returns nil if exact inference
// exceeds the budget.
func newRankingRun(db *engine.DB, q *cq.Query, budget int) *rankingRun {
	reduced := engine.SemiJoinReduceCtx(nil, db, q)
	lin := engine.EvalLineageCtx(nil, db, q, reduced)
	if lin.Len() == 0 {
		return nil
	}
	r := &rankingRun{probs: db.VarProbs()}
	for i := 0; i < lin.Len(); i++ {
		p, err := exact.ProbBudget(lin.Clauses(i), r.probs, budget)
		if err != nil {
			return nil
		}
		r.keys = append(r.keys, lineageKey(lin, i))
		r.gt = append(r.gt, p)
		r.linSize = append(r.linSize, float64(lin.Size(i)))
		r.clauses = append(r.clauses, lin.Clauses(i))
	}
	// Dissociation scores aligned to the lineage's answer order.
	plans := core.MinimalPlans(q, nil)
	res := engine.EvalPlansCtx(nil, db, q, plans, engine.Options{ReuseSubplans: true, SemiJoin: true})
	r.diss = alignScores(db, res, r.keys)
	// Ground-truth statistics.
	sorted := append([]float64(nil), r.gt...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	top := sorted
	if len(top) > 10 {
		top = top[:10]
	}
	sum := 0.0
	for _, p := range top {
		sum += p
	}
	r.avgPaTop10 = sum / float64(len(top))
	r.maxPa = sorted[0]
	return r
}

func lineageKey(lin *engine.Lineage, i int) string {
	b := make([]byte, 0, 16)
	for _, v := range lin.Key(i) {
		u := uint64(v)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24), byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return string(b)
}

func resultKeyAt(res *engine.Result, i int) string {
	b := make([]byte, 0, 16)
	for _, v := range res.Row(i) {
		u := uint64(v)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24), byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return string(b)
}

func alignScores(db *engine.DB, res *engine.Result, keys []string) []float64 {
	m := map[string]float64{}
	for i := 0; i < res.Len(); i++ {
		m[resultKeyAt(res, i)] = res.Score(i)
	}
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// mcScores estimates every answer with MC(samples).
func (r *rankingRun) mcScores(samples int, rng *rand.Rand) []float64 {
	out := make([]float64, len(r.clauses))
	for i, cs := range r.clauses {
		out[i], _ = mc.EstimateCtx(nil, cs, r.probs, samples, rng)
	}
	return out
}

// apDiss, apLineage, apOf score rankings against the ground truth.
func (r *rankingRun) apDiss() float64    { return rank.AveragePrecision(r.gt, r.diss, 10) }
func (r *rankingRun) apLineage() float64 { return rank.AveragePrecision(r.gt, r.linSize, 10) }
func (r *rankingRun) apOf(scores []float64) float64 {
	return rank.AveragePrecision(r.gt, scores, 10)
}

// mcSampleCounts is the x-axis of Figure 5i.
var mcSampleCounts = []int{10, 30, 100, 300, 1000, 3000, 10000}

// Fig5i reproduces Figure 5i (Result 3): MAP@10 of MC as a function of
// the number of samples, against the flat lines of dissociation and
// ranking by lineage size. Only instances with avg[pa] of the top 10 in
// (0.1, 0.9) count, as in the paper.
func Fig5i(cfg Config) *Table {
	t := &Table{ID: "Figure 5i",
		Title:  "MAP@10 vs number of MC samples ($2 = '%red%green%'); Diss and lineage-size as flat series",
		Header: []string{"series", "MAP@10", "stddev", "#runs"}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tp := workload.NewTPCH(cfg.Scale, 0.5, rng)
	var dissAPs, linAPs []float64
	mcAPs := map[int][]float64{}
	for rep := 0; rep < cfg.Reps; rep++ {
		pimax := 0.2 + 0.8*float64(rep%5)/4 // sweep pimax in [0.2, 1.0]
		workload.AssignProbs(tp.DB, "uniform", pimax, rng)
		q := tp.Query(tp.Suppliers, "%red%green%")
		run := newRankingRun(tp.DB, q, 5_000_000)
		if run == nil || run.avgPaTop10 <= 0.1 || run.avgPaTop10 >= 0.9 {
			continue
		}
		dissAPs = append(dissAPs, run.apDiss())
		linAPs = append(linAPs, run.apLineage())
		for _, x := range mcSampleCounts {
			for mcRep := 0; mcRep < 3; mcRep++ {
				mcAPs[x] = append(mcAPs[x], run.apOf(run.mcScores(x, rng)))
			}
		}
	}
	t.Add("Dissociation", rank.MAP(dissAPs), rank.Stddev(dissAPs), len(dissAPs))
	t.Add("Lineage size", rank.MAP(linAPs), rank.Stddev(linAPs), len(linAPs))
	for _, x := range mcSampleCounts {
		t.Add(fmt.Sprintf("MC(%d)", x), rank.MAP(mcAPs[x]), rank.Stddev(mcAPs[x]), len(mcAPs[x]))
	}
	t.Add("Random baseline", rank.RandomAP(workload.Nations, 10), 0.0, 0)
	return t
}

// paBuckets are the avg[pa] bins of Figure 5j's log-scaled x-axis.
var paBuckets = []struct {
	name string
	lo   float64
	hi   float64
}{
	{"avg[pa] < 0.5", 0, 0.5},
	{"0.5 – 0.9", 0.5, 0.9},
	{"0.9 – 0.99", 0.9, 0.99},
	{"0.99 – 0.999", 0.99, 0.999},
	{"> 0.999", 0.999, 1.0000001},
}

// Fig5j reproduces Figure 5j (Result 4): MAP@10 as a function of the
// average ground-truth probability of the top-10 answers. MC degrades
// towards the random baseline as avg[pa] approaches 0 or 1; dissociation
// stays near 1.
func Fig5j(cfg Config) *Table {
	series := []string{"Dissociation", "Lineage", "MC(10)", "MC(100)", "MC(1k)", "MC(10k)"}
	t := &Table{ID: "Figure 5j",
		Title:  "MAP@10 vs avg[pa] of the top-10 answers",
		Header: append([]string{"bucket", "#runs"}, series...)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tp := workload.NewTPCH(cfg.Scale, 0.5, rng)
	type acc map[string][]float64
	buckets := make([]acc, len(paBuckets))
	for i := range buckets {
		buckets[i] = acc{}
	}
	mcX := map[string]int{"MC(10)": 10, "MC(100)": 100, "MC(1k)": 1000, "MC(10k)": 10000}
	for rep := 0; rep < cfg.Reps*3; rep++ {
		pimax := 0.05 + 0.95*float64(rep%7)/6
		workload.AssignProbs(tp.DB, "uniform", pimax, rng)
		pattern := []string{"%red%green%", "%red%"}[rep%2]
		q := tp.Query(tp.Suppliers, pattern)
		run := newRankingRun(tp.DB, q, 5_000_000)
		if run == nil || run.maxPa > 0.999999 {
			continue
		}
		bi := -1
		for i, b := range paBuckets {
			if run.avgPaTop10 >= b.lo && run.avgPaTop10 < b.hi {
				bi = i
				break
			}
		}
		if bi < 0 {
			continue
		}
		buckets[bi]["Dissociation"] = append(buckets[bi]["Dissociation"], run.apDiss())
		buckets[bi]["Lineage"] = append(buckets[bi]["Lineage"], run.apLineage())
		for name, x := range mcX {
			buckets[bi][name] = append(buckets[bi][name], run.apOf(run.mcScores(x, rng)))
		}
	}
	for i, b := range paBuckets {
		row := []any{b.name, len(buckets[i]["Dissociation"])}
		for _, s := range series {
			if vals := buckets[i][s]; len(vals) > 0 {
				row = append(row, rank.MAP(vals))
			} else {
				row = append(row, "-")
			}
		}
		t.Add(row...)
	}
	return t
}

// Fig5k reproduces Figure 5k (Result 5): the quality of ranking by
// lineage size as a function of the maximum lineage size, under four
// probability assignments: pi = 0.1 and pi = 0.5 (all tuples equal) vs
// avg[pi] = 0.1 and avg[pi] = 0.5 (uniformly random). Equal input
// probabilities make lineage size a good ranking; random ones do not.
func Fig5k(cfg Config) *Table {
	modes := []struct {
		name, kind string
		pimax      float64
	}{
		{"pi=0.1", "const", 0.1},
		{"pi=0.5", "const", 0.5},
		{"avg[pi]=0.1", "uniform", 0.2},
		{"avg[pi]=0.5", "uniform", 1.0},
	}
	t := &Table{ID: "Figure 5k",
		Title:  "MAP@10 of ranking by lineage size vs max lineage size",
		Header: []string{"$2", "$1", "max[lin]", "pi=0.1", "pi=0.5", "avg[pi]=0.1", "avg[pi]=0.5"}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tp := workload.NewTPCH(cfg.Scale, 0.5, rng)
	for _, pattern := range []string{"%red%green%", "%red%"} {
		for _, d1 := range []int{tp.Suppliers / 2, tp.Suppliers} {
			q := tp.Query(d1, pattern)
			row := []any{pattern, d1}
			maxLin := 0
			var maps []any
			for _, m := range modes {
				var aps []float64
				for rep := 0; rep < cfg.Reps; rep++ {
					workload.AssignProbs(tp.DB, m.kind, m.pimax, rng)
					run := newRankingRun(tp.DB, q, 5_000_000)
					if run == nil || run.maxPa > 0.999999 {
						continue
					}
					if len(run.clauses) > 0 {
						lin := engine.EvalLineageCtx(nil, tp.DB, q, engine.SemiJoinReduceCtx(nil, tp.DB, q))
						if lin.MaxSize() > maxLin {
							maxLin = lin.MaxSize()
						}
					}
					aps = append(aps, run.apLineage())
					if m.kind == "const" {
						break // the lineage ranking is identical across reps
					}
				}
				if len(aps) > 0 {
					maps = append(maps, rank.MAP(aps))
				} else {
					maps = append(maps, "-")
				}
			}
			row = append(row, maxLin)
			row = append(row, maps...)
			t.Add(row...)
		}
	}
	return t
}

// FanoutDB generates the controlled-dissociation database used for
// Figures 5l–5p: the TPC-H query shape Q(a) :- S(s,a), PS(s,u), P(u,n)
// where a nation has on average suppPerNation suppliers (drawn from
// 1..2·suppPerNation−1, so nations differ in lineage size and ranking by
// lineage size is non-trivial, as in the paper's TPC-H data), each
// supplier linked to exactly partsPerSupp parts drawn from a per-nation
// pool of poolSize parts. The plan that dissociates Supplier then has
// avg[d] = partsPerSupp, and the plan that dissociates Part has
// avg[d] ≈ suppliers·partsPerSupp/poolSize.
func FanoutDB(suppPerNation, partsPerSupp, poolSize int, pimax float64, rng *rand.Rand) *workload.TPCH {
	db := engine.NewDB()
	sup := db.CreateRelation("Supplier", []string{"s", "a"})
	ps := db.CreateRelation("Partsupp", []string{"s", "u"})
	part := db.CreateRelation("Part", []string{"u", "n"})
	name := db.Intern("part")
	s := 1
	for a := 0; a < workload.Nations; a++ {
		base := a * poolSize
		nSupp := 1 + rng.Intn(2*suppPerNation-1)
		for i := 0; i < nSupp; i++ {
			sup.Insert([]engine.Value{engine.Value(s), engine.Value(a)}, rng.Float64()*pimax)
			seen := map[int]bool{}
			for j := 0; j < partsPerSupp; {
				u := base + rng.Intn(poolSize)
				if seen[u] {
					continue
				}
				seen[u] = true
				ps.Insert([]engine.Value{engine.Value(s), engine.Value(u)}, rng.Float64()*pimax)
				j++
			}
			s++
		}
	}
	for a := 0; a < workload.Nations; a++ {
		for u := a * poolSize; u < (a+1)*poolSize; u++ {
			part.Insert([]engine.Value{engine.Value(u), name}, rng.Float64()*pimax)
		}
	}
	return &workload.TPCH{DB: db, Suppliers: s - 1, Parts: workload.Nations * poolSize}
}

// planDissociating returns the minimal plan whose dissociation adds
// variables to the given relation.
func planDissociating(q *cq.Query, rel string) plan.Node {
	for _, p := range core.MinimalPlans(q, nil) {
		if plan.DeltaOf(q, p).ExtraOf(rel).Len() > 0 {
			return p
		}
	}
	return nil
}

// Fig5l reproduces Figure 5l (Result 6): MAP@10 of ranking by a single
// plan as a function of avg[d] (the mean number of dissociations per
// tuple of the dissociated table), for several avg[pi] levels. Quality
// degrades with both avg[d] and avg[pi].
func Fig5l(cfg Config) *Table {
	pimaxes := []float64{0.1, 0.5, 1.0} // avg[pi] = 0.05, 0.25, 0.5
	t := &Table{ID: "Figure 5l",
		Title:  "MAP@10 of single-plan dissociation vs avg[d], per avg[pi]",
		Header: []string{"avg[d]", "avg[pi]=0.05", "avg[pi]=0.25", "avg[pi]=0.5"}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, d := range []int{1, 2, 3, 4, 5} {
		row := []any{d}
		for _, pimax := range pimaxes {
			var aps []float64
			for rep := 0; rep < cfg.Reps; rep++ {
				tp := FanoutDB(4, d, 8, pimax, rng)
				q := tp.Query(tp.Suppliers, "%")
				// Rank by the plan that dissociates Supplier: every
				// supplier splits into its d parts.
				p := planDissociating(q, "Supplier")
				if p == nil {
					continue
				}
				run := newRankingRun(tp.DB, q, 5_000_000)
				if run == nil || run.maxPa > 0.999999 {
					continue
				}
				res := evalPlan(tp.DB, q, p, engine.Options{ReuseSubplans: true})
				aps = append(aps, run.apOf(alignScores(tp.DB, res, run.keys)))
			}
			if len(aps) > 0 {
				row = append(row, rank.MAP(aps))
			} else {
				row = append(row, "-")
			}
		}
		t.Add(row...)
	}
	return t
}

// Fig5m reproduces Figure 5m (Result 6): the regime map of which method
// wins — dissociation or MC(x) — over the (avg[d], avg[pi]) plane. Each
// cell reports "Diss" when dissociation's MAP is at least MC(10k)'s, or
// the smallest sample count x ∈ {1k, 3k, 10k} whose MC MAP beats
// dissociation.
func Fig5m(cfg Config) *Table {
	t := &Table{ID: "Figure 5m",
		Title:  "winner per (avg[d], avg[pi]) cell: Diss, or smallest MC(x) beating it",
		Header: []string{"avg[d]", "avg[pi]=0.05", "avg[pi]=0.25", "avg[pi]=0.5"}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, d := range []int{1, 2, 3, 4, 5} {
		row := []any{d}
		for _, pimax := range []float64{0.1, 0.5, 1.0} {
			var dissAPs []float64
			mcAPs := map[int][]float64{}
			for rep := 0; rep < cfg.Reps; rep++ {
				tp := FanoutDB(4, d, 8, pimax, rng)
				q := tp.Query(tp.Suppliers, "%")
				p := planDissociating(q, "Supplier")
				run := newRankingRun(tp.DB, q, 5_000_000)
				if run == nil || p == nil || run.maxPa > 0.999999 {
					continue
				}
				res := evalPlan(tp.DB, q, p, engine.Options{ReuseSubplans: true})
				dissAPs = append(dissAPs, run.apOf(alignScores(tp.DB, res, run.keys)))
				for _, x := range []int{1000, 3000, 10000} {
					mcAPs[x] = append(mcAPs[x], run.apOf(run.mcScores(x, rng)))
				}
			}
			if len(dissAPs) == 0 {
				row = append(row, "-")
				continue
			}
			diss := rank.MAP(dissAPs)
			winner := "Diss"
			for _, x := range []int{1000, 3000, 10000} {
				if rank.MAP(mcAPs[x]) > diss {
					winner = fmt.Sprintf("MC(%d)", x)
					break
				}
			}
			row = append(row, winner)
		}
		t.Add(row...)
	}
	return t
}

// compiledGT holds every answer's lineage compiled to an arithmetic
// circuit (knowledge compilation), so the exact ranking can be
// re-evaluated under scaled probability vectors in linear time — the
// workload of Figures 5n–5p, which score the same lineages for many
// scaling factors f.
type compiledGT struct {
	keys     []string
	circuits map[string]*exact.Circuit
	probs    []float64
}

// compileGT compiles the lineage of every answer; nil when exact
// compilation exceeds the budget.
func compileGT(db *engine.DB, q *cq.Query, keys []string, budget int) *compiledGT {
	reduced := engine.SemiJoinReduceCtx(nil, db, q)
	lin := engine.EvalLineageCtx(nil, db, q, reduced)
	c := &compiledGT{keys: keys, circuits: map[string]*exact.Circuit{}, probs: db.VarProbs()}
	for i := 0; i < lin.Len(); i++ {
		circ, err := exact.Compile(lin.Clauses(i), budget)
		if err != nil {
			return nil
		}
		c.circuits[lineageKey(lin, i)] = circ
	}
	return c
}

// scores evaluates the compiled circuits under probabilities scaled by
// f, aligned to the instance's answer keys.
func (c *compiledGT) scores(f float64) []float64 {
	scaled := make([]float64, len(c.probs))
	for i, p := range c.probs {
		scaled[i] = p * f
	}
	out := make([]float64, len(c.keys))
	for i, k := range c.keys {
		if circ, ok := c.circuits[k]; ok {
			out[i] = circ.Eval(scaled)
		}
	}
	return out
}

// scaledGTScores computes, for one instance, the exact probabilities on
// a probability-scaled copy of the database, aligned to keys (used by
// tests and one-shot callers; the figure drivers compile once and reuse).
func scaledGTScores(db *engine.DB, q *cq.Query, keys []string, f float64, budget int) []float64 {
	c := compileGT(db, q, keys, budget)
	if c == nil {
		return nil
	}
	return c.scores(f)
}

func scaledDissScores(db *engine.DB, q *cq.Query, keys []string, f float64) []float64 {
	scaled := db.Clone()
	scaled.ScaleProbs(f)
	res := engine.EvalPlansCtx(nil, scaled, q, core.MinimalPlans(q, nil), engine.Options{ReuseSubplans: true, SemiJoin: true})
	return alignScores(scaled, res, keys)
}

var scaleFactors = []float64{1.0, 0.5, 0.2, 0.1, 0.05, 0.01}

// Fig5n reproduces Figure 5n (Result 7): MAP@10 of the exact ranking on
// a down-scaled database against the unscaled ground truth, as a
// function of the scaling factor f, for avg[pi] ∈ {0.1, 0.4, 0.5}.
func Fig5n(cfg Config) *Table {
	pimaxes := []float64{0.2, 0.8, 1.0} // avg[pi] = 0.1, 0.4, 0.5
	t := &Table{ID: "Figure 5n",
		Title:  "MAP@10 of exact ranking on scaled DB vs unscaled GT, by scaling factor f",
		Header: []string{"f", "avg[pi]=0.1", "avg[pi]=0.4", "avg[pi]=0.5"}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Pre-generate instances per pimax level (avg[d] ≈ 3 as in the
	// paper).
	type inst struct {
		run *rankingRun
		gt  *compiledGT
	}
	insts := map[float64][]inst{}
	for _, pimax := range pimaxes {
		for rep := 0; rep < cfg.Reps; rep++ {
			tp := FanoutDB(4, 3, 8, pimax, rng)
			q := tp.Query(tp.Suppliers, "%")
			run := newRankingRun(tp.DB, q, 5_000_000)
			if run == nil || run.maxPa > 0.999999 {
				continue
			}
			gt := compileGT(tp.DB, q, run.keys, 5_000_000)
			if gt == nil {
				continue
			}
			insts[pimax] = append(insts[pimax], inst{run, gt})
		}
	}
	for _, f := range scaleFactors {
		row := []any{fmt.Sprintf("%.2f", f)}
		for _, pimax := range pimaxes {
			var aps []float64
			for _, in := range insts[pimax] {
				aps = append(aps, in.run.apOf(in.gt.scores(f)))
			}
			if len(aps) > 0 {
				row = append(row, rank.MAP(aps))
			} else {
				row = append(row, "-")
			}
		}
		t.Add(row...)
	}
	return t
}

// Fig5o reproduces Figure 5o (Result 7): the decomposition of ranking
// quality at avg[pi] = 0.5 — random baseline (0.220), ranking by lineage
// size, ranking by relative input weights (exact on a strongly scaled
// database), and exact inference (1.0).
func Fig5o(cfg Config) *Table {
	t := &Table{ID: "Figure 5o",
		Title:  "ranking quality decomposition at avg[pi] = 0.5",
		Header: []string{"method", "MAP@10"}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var linAPs, weightAPs []float64
	for rep := 0; rep < cfg.Reps; rep++ {
		tp := FanoutDB(4, 3, 8, 1.0, rng)
		q := tp.Query(tp.Suppliers, "%")
		run := newRankingRun(tp.DB, q, 5_000_000)
		if run == nil || run.maxPa > 0.999999 {
			continue
		}
		linAPs = append(linAPs, run.apLineage())
		if scores := scaledGTScores(tp.DB, q, run.keys, 0.01, 5_000_000); scores != nil {
			weightAPs = append(weightAPs, run.apOf(scores))
		}
	}
	t.Add("Random baseline", rank.RandomAP(workload.Nations, 10))
	t.Add("Ranking by lineage size", rank.MAP(linAPs))
	t.Add("Ranking by relative input weights (f -> 0)", rank.MAP(weightAPs))
	t.Add("Exact probabilistic inference (GT)", 1.0)
	return t
}

// Fig5p reproduces Figure 5p (Result 8): for a scaling-factor sweep,
// the MAP of (i) scaled dissociation against the scaled ground truth,
// (ii) scaled dissociation against the original ground truth, (iii) the
// scaled ground truth against the original, and (iv) lineage size
// against the scaled ground truth.
func Fig5p(cfg Config) *Table {
	t := &Table{ID: "Figure 5p",
		Title:  "scaled dissociation / scaled GT / lineage size, MAP@10 vs f (avg[pi] = 0.5)",
		Header: []string{"f", "ScaledDiss vs ScaledGT", "ScaledDiss vs GT", "ScaledGT vs GT", "Lineage vs ScaledGT"}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	type inst struct {
		tp  *workload.TPCH
		q   *cq.Query
		run *rankingRun
		gt  *compiledGT
	}
	var insts []inst
	for rep := 0; rep < cfg.Reps; rep++ {
		tp := FanoutDB(4, 3, 8, 1.0, rng)
		q := tp.Query(tp.Suppliers, "%")
		run := newRankingRun(tp.DB, q, 5_000_000)
		if run == nil || run.maxPa > 0.999999 {
			continue
		}
		gt := compileGT(tp.DB, q, run.keys, 5_000_000)
		if gt == nil {
			continue
		}
		insts = append(insts, inst{tp, q, run, gt})
	}
	for _, f := range scaleFactors {
		var a, b, c, d []float64
		for _, in := range insts {
			sgt := in.gt.scores(f)
			sdiss := scaledDissScores(in.tp.DB, in.q, in.run.keys, f)
			a = append(a, rank.AveragePrecision(sgt, sdiss, 10))
			b = append(b, rank.AveragePrecision(in.run.gt, sdiss, 10))
			c = append(c, rank.AveragePrecision(in.run.gt, sgt, 10))
			d = append(d, rank.AveragePrecision(sgt, in.run.linSize, 10))
		}
		t.Add(fmt.Sprintf("%.2f", f), rank.MAP(a), rank.MAP(b), rank.MAP(c), rank.MAP(d))
	}
	return t
}
