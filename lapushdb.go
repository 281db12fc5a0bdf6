// Package lapushdb is an in-memory probabilistic database with
// dissociation-based approximate query answering, implementing
// Gatterbauer & Suciu, "Approximate Lifted Inference with Probabilistic
// Databases" (VLDB 2015).
//
// A LaPushDB database stores tuple-independent probabilistic relations:
// every tuple carries a probability and all tuples are independent
// events. Self-join-free conjunctive queries, written in datalog style,
//
//	q(z) :- R(z, x), S(x, y), T(y)
//
// are answered with one probability score per answer tuple. Safe
// (hierarchical) queries get their exact probability; for #P-hard queries
// the score is the propagation score ρ — the minimum over all minimal
// query plans, each an upper bound on the true probability — which ranks
// answers with high precision at a small multiple of deterministic SQL
// cost. Schema knowledge (deterministic relations, keys) shrinks the set
// of plans and widens the class of exactly-computable queries.
//
// The Method field of Options also exposes the paper's baselines: exact
// weighted model counting on the lineage (the DPLL kernel), Monte Carlo
// sampling (naive or the Karp–Luby FPRAS), ranking by lineage size, and
// deterministic (set-semantics) evaluation. Every operation that
// evaluates a query takes a context first. Beyond RankContext, the API
// offers exact top-k with bound-driven early termination (RankTopK),
// unions of conjunctive queries (RankUnion), Boolean provenance with
// read-once factorization (LineageContext), tuple-influence explanations
// (Influence), operator profiling (Profile), plan visualization
// (PlanDOT), and snapshot persistence (Save/Load).
package lapushdb

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/engine"
	"lapushdb/internal/exact"
	"lapushdb/internal/lineage"
	"lapushdb/internal/mc"
	"lapushdb/internal/plan"
	"lapushdb/internal/viz"
)

// DB is a tuple-independent probabilistic database.
type DB struct {
	db *engine.DB
}

// Open creates an empty database.
func Open() *DB { return &DB{db: engine.NewDB()} }

// Relation is a handle to one relation of the database.
type Relation struct {
	r  *engine.Relation
	db *engine.DB
}

// CreateRelation adds a probabilistic relation with the given columns.
func (d *DB) CreateRelation(name string, cols ...string) (*Relation, error) {
	if d.db.Relation(name) != nil {
		return nil, fmt.Errorf("lapushdb: relation %s already exists", name)
	}
	return &Relation{r: d.db.CreateRelation(name, cols), db: d.db}, nil
}

// CreateDeterministicRelation adds a relation whose tuples are all
// certain. Declaring determinism is schema knowledge: it reduces the
// number of plans needed and can make otherwise #P-hard queries exact.
func (d *DB) CreateDeterministicRelation(name string, cols ...string) (*Relation, error) {
	if d.db.Relation(name) != nil {
		return nil, fmt.Errorf("lapushdb: relation %s already exists", name)
	}
	return &Relation{r: d.db.CreateDeterministicRelation(name, cols), db: d.db}, nil
}

// Relation returns a handle to an existing relation, or nil.
func (d *DB) Relation(name string) *Relation {
	r := d.db.Relation(name)
	if r == nil {
		return nil
	}
	return &Relation{r: r, db: d.db}
}

// Insert adds a tuple with the given probability. Values may be string,
// int, or int64. A probability outside [0, 1] (NaN included), or one
// other than 1 on a deterministic relation, is an error.
func (r *Relation) Insert(p float64, values ...any) error {
	if len(values) != len(r.r.Cols) {
		return fmt.Errorf("lapushdb: %s expects %d values, got %d", r.r.Name, len(r.r.Cols), len(values))
	}
	if err := r.checkProb(p); err != nil {
		return err
	}
	tuple := make([]engine.Value, len(values))
	for i, v := range values {
		switch t := v.(type) {
		case string:
			tuple[i] = r.db.EncodeConst(t)
		case int:
			tuple[i] = r.db.Int(int64(t))
		case int64:
			tuple[i] = r.db.Int(t)
		default:
			return fmt.Errorf("lapushdb: unsupported value type %T", v)
		}
	}
	r.r.Insert(tuple, p)
	return nil
}

// checkProb is the one check of a tuple probability, shared by Insert
// and SetProbAt: a number in [0, 1] (NaN is not), and exactly 1 on a
// deterministic relation.
func (r *Relation) checkProb(p float64) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("lapushdb: probability %v out of [0, 1]", p)
	}
	if r.r.Deterministic && p != 1 {
		return fmt.Errorf("lapushdb: deterministic relation %s requires probability 1, got %v", r.r.Name, p)
	}
	return nil
}

// SetKey declares the relation's primary key. Keys contribute functional
// dependencies that reduce the number of plans and widen the class of
// exactly-computable queries.
func (r *Relation) SetKey(cols ...string) { r.r.SetKey(cols...) }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.r.Len() }

// Method selects how answer probabilities are computed.
type Method int

const (
	// Dissociation (default) computes the propagation score ρ: exact for
	// safe queries, a guaranteed upper bound otherwise.
	Dissociation Method = iota
	// Exact computes the true probability by weighted model counting on
	// the lineage (#P-hard; may be infeasible for large lineages).
	Exact
	// MonteCarlo estimates the probability by sampling the lineage.
	MonteCarlo
	// LineageSize ranks by the number of lineage clauses (a
	// non-probabilistic baseline; "scores" are clause counts).
	LineageSize
	// Deterministic evaluates under set semantics; every answer scores 1.
	Deterministic
	// KarpLuby estimates the probability with the Karp–Luby–Madras
	// coverage FPRAS: unlike naive MonteCarlo its relative error does not
	// degrade for small probabilities (the regime the paper recommends
	// for dissociation quality).
	KarpLuby
)

// Options configures RankContext.
type Options struct {
	// Method selects the scoring method (default Dissociation).
	Method Method
	// DisableOpt1 evaluates all minimal plans separately instead of the
	// merged single plan (Algorithm 2).
	DisableOpt1 bool
	// DisableOpt2 turns off reuse of common subplan results (views).
	DisableOpt2 bool
	// DisableOpt3 turns off the deterministic semi-join reduction.
	DisableOpt3 bool
	// IgnoreSchema disregards deterministic relations and keys during
	// plan enumeration.
	IgnoreSchema bool
	// MaxIntermediateRows caps the total number of intermediate result
	// rows one Rank evaluation may materialize, whatever its method:
	// scan outputs, join outputs, and projection groups, summed across
	// all plans of the query. Exceeding the cap aborts the query with an
	// error wrapping ErrBudget instead of exhausting memory. <= 0
	// disables the cap.
	MaxIntermediateRows int
	// MCSamples is the sample count for MonteCarlo (default
	// DefaultMCSamples).
	MCSamples int
	// Seed seeds the MonteCarlo sampler.
	Seed int64
	// ExactBudget bounds the exact solver's work (default
	// DefaultExactBudget nodes).
	ExactBudget int

	// memo, when non-nil, shares canonicalized subplan results and one
	// intermediate-row budget across the queries of a batch. It is set
	// internally by Batch (see batch.go); the zero value evaluates
	// standalone.
	memo *engine.BatchMemo
}

// ErrBudget is the typed error wrapped by Rank's failure when an
// evaluation exceeds Options.MaxIntermediateRows. Classify with
// errors.Is(err, lapushdb.ErrBudget).
var ErrBudget = engine.ErrBudget

// Evaluation defaults, exported so every layer that must agree on them
// — option resolution here, the server's result-cache keys, client
// documentation — names one constant instead of repeating the literal.
const (
	// DefaultMCSamples is the sample count used by the MonteCarlo and
	// KarpLuby methods when Options.MCSamples is unset.
	DefaultMCSamples = 1000
	// DefaultExactBudget is the exact solver's node budget when
	// Options.ExactBudget is unset.
	DefaultExactBudget = 50_000_000
)

// Answer is one query answer: its head values (decoded to strings, in
// the order of the sorted head variables) and its probability score.
type Answer struct {
	Values []string
	Score  float64
}

// RankContext evaluates the query and returns its answers ordered by
// descending score. The query must be a self-join-free conjunctive query
// over the database's relations. The evaluation loops poll ctx and the
// call returns its error (context.Canceled or context.DeadlineExceeded)
// promptly when it is done, instead of running the query to completion.
func (d *DB) RankContext(ctx context.Context, query string, opts *Options) ([]Answer, error) {
	if opts == nil {
		opts = &Options{}
	}
	q, err := parseChecked(d, query)
	if err != nil {
		return nil, err
	}
	return d.rank(ctx, q, nil, opts)
}

// parseChecked parses a query and validates it against the schema.
func parseChecked(d *DB, query string) (*cq.Query, error) {
	q, err := cq.Parse(query)
	if err != nil {
		return nil, err
	}
	if err := d.checkQuery(q); err != nil {
		return nil, err
	}
	return q, nil
}

// rank dispatches a parsed query to its method's evaluation path. When
// pre is non-nil its pre-enumerated plans are reused (RankPrepared).
func (d *DB) rank(ctx context.Context, q *cq.Query, pre *Prepared, opts *Options) ([]Answer, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	switch opts.Method {
	case Dissociation:
		return d.rankDissociation(ctx, q, pre, opts)
	case Exact, MonteCarlo, KarpLuby, LineageSize:
		lin, err := d.evalLineage(ctx, q, opts)
		if err != nil {
			return nil, err
		}
		return d.newScorer(opts.Method, opts).rank(ctx, lin.Len(), lin.Key, lin.Clauses)
	case Deterministic:
		return d.rankDeterministic(ctx, q, opts)
	default:
		return nil, fmt.Errorf("lapushdb: unknown method %d", opts.Method)
	}
}

func (d *DB) checkQuery(q *cq.Query) error {
	if err := q.CheckWidth(); err != nil {
		return err
	}
	for _, a := range q.Atoms {
		r := d.db.Relation(a.Rel)
		if r == nil {
			return fmt.Errorf("lapushdb: unknown relation %s", a.Rel)
		}
		if len(a.Args) != r.Arity() {
			return fmt.Errorf("lapushdb: atom %s has arity %d, relation has %d", a, len(a.Args), r.Arity())
		}
	}
	return nil
}

func (d *DB) schema(q *cq.Query, opts *Options) *core.Schema {
	if opts.IgnoreSchema {
		return nil
	}
	return engine.SchemaFor(d.db, q)
}

func (d *DB) rankDissociation(ctx context.Context, q *cq.Query, pre *Prepared, opts *Options) ([]Answer, error) {
	res, err := d.evalDissociation(ctx, q, pre, opts)
	if err != nil {
		return nil, err
	}
	return d.toAnswers(res), nil
}

// evalDissociation is the one place Options become engine.Options for
// a Dissociation evaluation: the propagation score of every answer, as
// engine rows, with a cancellation or row-budget unwind trapped into
// the returned error.
func (d *DB) evalDissociation(ctx context.Context, q *cq.Query, pre *Prepared, opts *Options) (*engine.Result, error) {
	eopts := engine.Options{
		ReuseSubplans:       !opts.DisableOpt2,
		SemiJoin:            !opts.DisableOpt3,
		MaxIntermediateRows: opts.MaxIntermediateRows,
		Memo:                opts.memo,
	}
	// Plans come from the prepared statement when available — skipping
	// the minimal-plan enumeration is the point of the plan cache.
	minPlans := func() []plan.Node {
		if pre != nil {
			return pre.plans
		}
		return core.MinimalPlans(q, d.schema(q, opts))
	}
	var res *engine.Result
	err := engine.TrapCancel(func() {
		if opts.DisableOpt1 {
			res = engine.EvalPlansCtx(ctx, d.db, q, minPlans(), eopts)
		} else {
			var sp plan.Node
			if pre != nil {
				sp = pre.single
			} else {
				sp = core.SinglePlan(q, d.schema(q, opts))
			}
			e := engine.NewEvaluatorCtx(ctx, d.db, q, eopts)
			defer e.Release()
			res = e.Eval(sp)
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// evalLineage computes the query's lineage under ctx and the row budget
// of opts, with the semi-join reduction applied first unless opts
// disables Opt3.
func (d *DB) evalLineage(ctx context.Context, q *cq.Query, opts *Options) (*engine.Lineage, error) {
	var lin *engine.Lineage
	err := engine.TrapCancel(func() {
		e := engine.NewEvaluatorCtx(ctx, d.db, q, engine.Options{
			SemiJoin:            !opts.DisableOpt3,
			MaxIntermediateRows: opts.MaxIntermediateRows,
		})
		defer e.Release()
		lin = e.Lineage(q)
	})
	if err != nil {
		return nil, err
	}
	return lin, nil
}

// scorer is the one per-answer scorer of every lineage-based method:
// Exact, MonteCarlo, KarpLuby and LineageSize in RankContext,
// RankUnion's lineage arm, and RankTopK's exact step. The budgets are
// resolved once, and one sampler stream serves every answer, so a Seed
// gives one result as long as answers are visited in one order.
type scorer struct {
	d       *DB
	method  Method
	budget  int
	samples int
	rng     *rand.Rand
}

func (d *DB) newScorer(method Method, opts *Options) *scorer {
	s := &scorer{d: d, method: method, budget: opts.ExactBudget, samples: opts.MCSamples,
		rng: rand.New(rand.NewSource(opts.Seed))}
	if s.budget <= 0 {
		s.budget = DefaultExactBudget
	}
	if s.samples <= 0 {
		s.samples = DefaultMCSamples
	}
	return s
}

// score returns one answer's score from its lineage, polling ctx first.
func (s *scorer) score(ctx context.Context, key []engine.Value, clauses [][]int32) (float64, error) {
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	probs := s.d.db.VarProbs()
	switch s.method {
	case Exact:
		p, err := exact.ProbBudget(clauses, probs, s.budget)
		if err != nil {
			return 0, fmt.Errorf("lapushdb: exact inference infeasible for answer %v: %w", s.d.decode(key), err)
		}
		return p, nil
	case MonteCarlo:
		return mc.EstimateCtx(ctx, clauses, probs, s.samples, s.rng)
	case KarpLuby:
		return mc.KarpLubyCtx(ctx, clauses, probs, s.samples, s.rng)
	case LineageSize:
		return float64(len(clauses)), nil
	default:
		return 0, fmt.Errorf("lapushdb: method %s does not score lineage", s.method)
	}
}

// rank scores n answers, given by their head values and lineages, in
// first-appearance order i = 0..n-1, and sorts them.
func (s *scorer) rank(ctx context.Context, n int, key func(int) []engine.Value, clauses func(int) [][]int32) ([]Answer, error) {
	answers := make([]Answer, n)
	for i := range answers {
		p, err := s.score(ctx, key(i), clauses(i))
		if err != nil {
			return nil, err
		}
		answers[i] = Answer{Values: s.d.decode(key(i)), Score: p}
	}
	sortAnswers(answers)
	return answers, nil
}

func (d *DB) rankDeterministic(ctx context.Context, q *cq.Query, opts *Options) ([]Answer, error) {
	var res *engine.Result
	err := engine.TrapCancel(func() {
		e := engine.NewEvaluatorCtx(ctx, d.db, nil, engine.Options{
			ReuseSubplans:       true,
			MaxIntermediateRows: opts.MaxIntermediateRows,
		})
		defer e.Release()
		res = e.Deterministic(q)
	})
	if err != nil {
		return nil, err
	}
	return d.toAnswers(res), nil
}

// toAnswers decodes every row into one backing slice of strings, each
// answer's Values a capacity-clamped view of it.
func (d *DB) toAnswers(res *engine.Result) []Answer {
	n, w := res.Len(), len(res.Cols)
	answers := make([]Answer, n)
	vals := make([]string, n*w)
	row := make([]engine.Value, 0, w)
	for i := range answers {
		row = res.AppendRow(row[:0], i)
		v := vals[i*w : (i+1)*w : (i+1)*w]
		for k, x := range row {
			v[k] = d.db.Decode(x)
		}
		answers[i] = Answer{Values: v, Score: res.Score(i)}
	}
	sortAnswers(answers)
	return answers
}

func (d *DB) decode(vals []engine.Value) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = d.db.Decode(v)
	}
	return out
}

func sortAnswers(answers []Answer) {
	sort.Slice(answers, func(i, j int) bool { return answerLess(answers[i], answers[j]) })
}

// answerLess orders answers by score descending, ties by values.
func answerLess(a, b Answer) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return slices.Compare(a.Values, b.Values) < 0
}

// Explanation describes how a query would be evaluated.
type Explanation struct {
	// Safe reports whether the query is safe given the schema knowledge
	// (its probability is computed exactly by a single plan).
	Safe bool
	// Plans renders every minimal plan in project-away notation.
	Plans []string
	// Dissociations renders the dissociation of each minimal plan.
	Dissociations []string
	// SinglePlan renders the Opt1 merged plan.
	SinglePlan string
}

// ExplainContext parses the query and reports its minimal plans, their
// dissociations, and whether the query is safe under the database's
// schema knowledge, polling ctx at stage boundaries. An optional Options
// value controls schema use (IgnoreSchema); evaluation-strategy fields
// are ignored.
func (d *DB) ExplainContext(ctx context.Context, query string, opts ...*Options) (*Explanation, error) {
	o := &Options{}
	if len(opts) > 0 && opts[0] != nil {
		o = opts[0]
	}
	p, err := d.PrepareContext(ctx, query, o)
	if err != nil {
		return nil, err
	}
	return p.Explanation(), nil
}

// ScaleProbs multiplies every tuple probability by f ∈ (0, 1]. Scaling
// down tightens the dissociation approximation (Proposition 21 of the
// paper) at the cost of absolute probability magnitudes. A factor
// outside (0, 1], NaN included, is an error and changes nothing.
func (d *DB) ScaleProbs(f float64) error {
	if !(f > 0 && f <= 1) {
		return fmt.Errorf("lapushdb: scale factor %v out of (0, 1]", f)
	}
	d.db.ScaleProbs(f)
	return nil
}

// Clone returns a deep copy of the database.
func (d *DB) Clone() *DB { return &DB{db: d.db.Clone()} }

// Save writes the database to w in a binary snapshot format readable by
// Load.
func (d *DB) Save(w io.Writer) error { return d.db.Save(w) }

// Load reads a database snapshot written by Save.
func Load(r io.Reader) (*DB, error) {
	db, err := engine.Load(r)
	if err != nil {
		return nil, err
	}
	return &DB{db: db}, nil
}

// LineageInfo describes one answer's Boolean provenance.
type LineageInfo struct {
	// Values are the answer's head values.
	Values []string
	// Size is the number of DNF clauses (satisfying assignments).
	Size int
	// Formula renders the lineage, e.g.
	// "Likes(ann, heat)·Stars(heat, deniro) ∨ ...". Tuples of
	// deterministic relations carry no variables and are omitted.
	Formula string
	// ReadOnce reports whether the lineage admits a read-once
	// factorization (exact probability computable in linear time).
	ReadOnce bool
	// Factorization is the read-once form when ReadOnce is true.
	Factorization string
}

// LineageContext computes every answer's Boolean provenance: the DNF
// over the database's uncertain tuples whose probability is the answer's
// true probability. The lineage evaluation loops poll ctx and return its
// error promptly when it is done.
func (d *DB) LineageContext(ctx context.Context, query string) ([]LineageInfo, error) {
	q, err := parseChecked(d, query)
	if err != nil {
		return nil, err
	}
	lin, err := d.evalLineage(ctx, q, &Options{})
	if err != nil {
		return nil, err
	}
	labels := d.db.VarLabels()
	name := func(v int32) string {
		if s, ok := labels[v]; ok {
			return s
		}
		return fmt.Sprintf("x%d", v)
	}
	out := make([]LineageInfo, lin.Len())
	for i := 0; i < lin.Len(); i++ {
		f := lineage.DNF(lin.Clauses(i))
		info := LineageInfo{
			Values:  d.decode(lin.Key(i)),
			Size:    lin.Size(i),
			Formula: f.String(name),
		}
		if tree, ok := lineage.Factor(f); ok {
			info.ReadOnce = true
			info.Factorization = tree.String()
		}
		out[i] = info
	}
	return out, nil
}

// PlanDOT renders the query's minimal plans (kind "plans") or its full
// dissociation lattice (kind "lattice", exponential — small queries
// only) as Graphviz DOT, the form of the paper's Figure 1.
func (d *DB) PlanDOT(query, kind string) (string, error) {
	q, err := parseChecked(d, query)
	if err != nil {
		return "", err
	}
	switch kind {
	case "plans":
		return viz.MinimalPlansDOT(q, engine.SchemaFor(d.db, q)), nil
	case "lattice":
		return viz.LatticeDOT(q), nil
	default:
		return "", fmt.Errorf("lapushdb: unknown DOT kind %q (want plans or lattice)", kind)
	}
}

// Profile evaluates the query's merged dissociation plan and returns an
// indented operator tree with per-node output cardinalities and
// inclusive times — the engine's EXPLAIN ANALYZE. The evaluation polls
// ctx like RankContext's.
func (d *DB) Profile(ctx context.Context, query string) (string, error) {
	q, err := parseChecked(d, query)
	if err != nil {
		return "", err
	}
	sp := core.SinglePlan(q, engine.SchemaFor(d.db, q))
	var stats []engine.NodeStat
	err = engine.TrapCancel(func() {
		e := engine.NewEvaluatorCtx(ctx, d.db, q, engine.Options{ReuseSubplans: true, SemiJoin: true})
		defer e.Release()
		_, stats = e.EvalProfiled(sp)
	})
	if err != nil {
		return "", err
	}
	return engine.FormatProfile(stats), nil
}
