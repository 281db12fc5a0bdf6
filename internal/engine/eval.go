package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

// Result is a relation-shaped evaluation result: one tuple of values per
// output row over Cols, with a probability score each. Storage is
// columnar (struct-of-arrays): one contiguous []int32 of dense value ids
// per column plus one contiguous []float64 score column, so operators run
// as tight kernels over slices instead of per-tuple calls. A cell is
// stored once, as its id; Row and AppendRow decode ids through the
// database's id-to-value slice as it stood at evaluation time (ids only
// ever grow, so later inserts never change what one decodes to). Row
// order is unspecified: a caller that matches rows across results keys
// them by value (AppendKey).
type Result struct {
	Cols   []cq.Var
	ids    [][]int32 // ids[k][i]: dense value id (DB.noteValue) of column k in row i
	scores []float64
	dict   []Value // id -> Value: DB.vals at evaluation time
	shared bool    // held by a BatchMemo: never given back to an arena
}

// newResult returns an empty result with per-column slice headers
// allocated for the given layout, decoding through dict.
func newResult(cols []cq.Var, dict []Value) *Result {
	return &Result{Cols: cols, ids: make([][]int32, len(cols)), dict: dict}
}

// Len returns the number of result tuples.
func (r *Result) Len() int { return len(r.scores) }

// value decodes the cell of column k in row i.
func (r *Result) value(k, i int) Value { return r.dict[r.ids[k][i]] }

// Row decodes the i-th tuple into a fresh slice.
func (r *Result) Row(i int) []Value {
	if len(r.Cols) == 0 {
		return nil
	}
	return r.AppendRow(make([]Value, 0, len(r.Cols)), i)
}

// AppendRow appends the i-th tuple's values to dst and returns the
// extended slice.
func (r *Result) AppendRow(dst []Value, i int) []Value {
	for k := range r.ids {
		dst = append(dst, r.value(k, i))
	}
	return dst
}

// Score returns the probability score of the i-th tuple.
func (r *Result) Score(i int) float64 { return r.scores[i] }

// Options configures plan evaluation.
type Options struct {
	// ReuseSubplans lowers a subplan that recurs in a plan to one step,
	// run once — the run-time counterpart of Optimization 2 (views for
	// common subplans). Off, every occurrence runs (see program.go).
	ReuseSubplans bool
	// SemiJoin applies the full deterministic semi-join reduction of
	// Optimization 3 to the scanned relations before evaluation.
	SemiJoin bool
	// Reduced, when non-nil, supplies a precomputed semi-join reduction
	// (as produced by SemiJoinReduceCtx) instead of recomputing it. It
	// takes precedence over SemiJoin.
	Reduced map[string][]int32
	// Workers is ignored: every evaluation runs on the calling goroutine.
	// The field only keeps perfbench/api.go compiling and is removed by
	// the next benchmark issue together with the engine.eval_plans_w2_ms
	// and engine.partitions_per_query probes.
	Workers int
	// Stats, when non-nil, accumulates execution counters (projection
	// chunks folded) across the evaluation. Safe to share between
	// concurrent evaluators.
	Stats *EvalStats
	// MaxIntermediateRows caps the total number of intermediate result
	// rows one evaluation may materialize across all operators (scan
	// outputs, join outputs, projection groups). Exceeding it aborts the
	// evaluation with an error wrapping ErrBudget. <= 0 disables the cap.
	MaxIntermediateRows int
	// Memo, when non-nil, shares canonicalized subplan results across
	// the evaluators of one batch (see batch.go). When the memo carries
	// a row budget it replaces MaxIntermediateRows: the budget spans the
	// whole batch instead of one evaluation.
	Memo *BatchMemo
}

// Evaluator evaluates plans over a database under the extensional score
// semantics of Section 2: joins multiply scores, duplicate-eliminating
// projections combine scores as independent events, min nodes keep the
// per-tuple minimum.
//
// An evaluator takes its operators' scratch from a pooled arena (see
// arena.go). Release hands the arena back once the evaluator is done;
// an evaluator that is never released leaves its arena to the
// collector. Every Result an exported method returns owns its columns
// and outlives the evaluator.
type Evaluator struct {
	db         *DB
	opts       Options
	reduced    map[string][]int32 // atom relation -> surviving row indices
	ownReduced bool               // reduced came from the arena
	cancel     canceller
	exec       exec // what operators see: cancel, opts.Stats, the row budget, the pooled arena (nil once released)
	redFP      map[string]string
	prog       *program // the plan being run (program.go): the arena's, or its own
}

// NewEvaluatorCtx prepares an evaluator for one query evaluation. If
// opts.SemiJoin is set, q is used to compute the semi-join reduction; q
// may be nil otherwise. The semi-join reduction and all evaluation loops
// poll ctx and unwind with a cancellation panic when it is done. Callers
// passing a non-nil ctx must wrap evaluation in TrapCancel; a nil ctx is
// never cancelled. Every evaluator takes its scratch from a pooled arena;
// a result that enters a BatchMemo is detached and never given back
// (DESIGN.md, "Evaluation scratch").
func NewEvaluatorCtx(ctx context.Context, db *DB, q *cq.Query, opts Options) *Evaluator {
	return newEvaluator(ctx, db, q, opts, getArena())
}

func newEvaluator(ctx context.Context, db *DB, q *cq.Query, opts Options, ar *arena) *Evaluator {
	e := &Evaluator{db: db, opts: opts}
	if ar != nil {
		e.prog = &ar.prog
	} else {
		e.prog = &program{}
	}
	e.cancel.ctx = ctx
	e.exec = exec{c: &e.cancel, stats: opts.Stats, budget: newRowBudget(opts.MaxIntermediateRows), ar: ar}
	if m := opts.Memo; m != nil && m.budget != nil {
		e.exec.budget = m.budget // the batch's budget replaces the evaluation's
	}
	if opts.Reduced != nil {
		e.reduced = opts.Reduced
	} else if opts.SemiJoin && q != nil {
		e.reduced = semiJoinReduce(db, q, &e.cancel, ar)
		e.ownReduced = ar != nil
	}
	return e
}

// Release gives the evaluator's scratch back to the pool: any result a
// run unwound by cancellation or the budget left in its slots, and its
// own semi-join reduction. Results already returned are unaffected; the
// evaluator itself must not be used again. Calling Release twice, or on
// an evaluator without an arena, is a no-op.
func (e *Evaluator) Release() {
	ar := e.exec.ar
	if ar == nil {
		return
	}
	for _, r := range e.prog.slots {
		e.drop(r)
	}
	clear(e.prog.slots)
	clear(e.prog.args)
	if e.ownReduced {
		for _, live := range e.reduced {
			ar.putInt32s(live)
		}
	}
	e.reduced, e.ownReduced, e.exec.ar, e.prog = nil, false, nil, nil
	putArena(ar)
}

// drop gives back a result no step will read again, unless a memo holds it.
func (e *Evaluator) drop(r *Result) { e.exec.ar.putResult(r) }

// detach hands a result to a caller outside the engine, or to a
// BatchMemo. Columns that fill their buffers leave with it and are never
// given back; columns grown past their length are copied out at their
// length, and the buffers stay in the arena.
func (e *Evaluator) detach(r *Result) *Result {
	if e.exec.ar == nil || r == nil || r.shared {
		return r
	}
	exact := len(r.scores) == cap(r.scores)
	for _, col := range r.ids {
		exact = exact && len(col) == cap(col)
	}
	if exact {
		return r
	}
	out := &Result{Cols: r.Cols, ids: make([][]int32, len(r.ids)), dict: r.dict}
	for k, col := range r.ids {
		out.ids[k] = make([]int32, len(col))
		copy(out.ids[k], col)
	}
	out.scores = make([]float64, len(r.scores))
	copy(out.scores, r.scores)
	e.drop(r)
	return out
}

// Eval evaluates a plan and returns its result. The result's columns are
// the plan's head variables in sorted order. With a batch memo attached
// the result is shared across the batch's evaluators (see batch.go).
func (e *Evaluator) Eval(p plan.Node) *Result { return e.detach(e.evalPlan(p, nil)) }

// EvalPlansCtx evaluates several plans independently (no sharing between
// them, mirroring separate SQL statements) and combines them with the
// per-answer minimum — the unoptimized "all minimal plans" strategy. ctx
// is polled as NewEvaluatorCtx describes.
func EvalPlansCtx(ctx context.Context, db *DB, q *cq.Query, plans []plan.Node, opts Options) *Result {
	// One evaluator serves every plan, so the semi-join reduction is
	// computed once and one row budget spans the query:
	// MaxIntermediateRows bounds the query, not each of its (possibly
	// many) minimal plans. Each plan is its own program.
	e := NewEvaluatorCtx(ctx, db, q, opts)
	defer e.Release()
	var out *Result
	var fold *minFold
	for _, p := range plans {
		r := e.evalPlan(p, nil)
		if out == nil {
			out = r
			continue
		}
		if fold == nil {
			fold = newMinFold(out, &e.exec)
			e.drop(out)
		}
		fold.merge(r)
		e.drop(r)
		out = fold.out
	}
	if fold != nil {
		out = fold.finish()
	}
	return e.detach(out)
}

// scan reads an atom's relation, applying constant selections, repeated-
// variable equality, pushed-down predicates, and — when the evaluator has
// a semi-join reduction — the reduced row set. The filter runs as
// component-at-a-time kernels producing a selection vector, then each
// output column is gathered in one pre-sized pass. It also returns that
// selection applied to extra, a column parallel to the relation's rows
// (nil gathers nothing).
func (e *Evaluator) scan(s *plan.Scan, extra []int32) (*Result, []int32) {
	rel, cols, pos := scanLayout(e.db, s)
	filter := newRowFilter(e.db, s.Atom, s.Preds)
	out := newResult(cols, e.db.vals)
	ar := e.exec.ar
	// Candidate rows: the semi-join reduction's, else the whole relation.
	cand, restricted := e.reduced[rel.Name]
	sel, all := filter.apply(rel, cand, restricted, &e.cancel, ar)
	m := len(sel)
	if all {
		m = rel.Len()
	}
	e.exec.charge(m)
	out.scores = ar.float64s(m)
	if all {
		copy(out.scores, rel.prob)
	} else {
		for x, ri := range sel {
			out.scores[x] = rel.prob[ri]
		}
	}
	a := rel.Arity()
	for k, j := range pos {
		dst := ar.int32s(m)
		if all {
			for i := range dst {
				dst[i] = rel.vids[i*a+j]
			}
		} else {
			for x, ri := range sel {
				dst[x] = rel.vids[int(ri)*a+j]
			}
		}
		out.ids[k] = dst
	}
	var gathered []int32
	if extra != nil {
		gathered = ar.int32s(m)
		if all {
			copy(gathered, extra)
		} else {
			for x, ri := range sel {
				gathered[x] = extra[ri]
			}
		}
	}
	if !all && !filter.empty() { // sel is the filter's copy, not the reduction's
		ar.putInt32s(sel)
	}
	return out, gathered
}

// scanLayout resolves a scan's relation and output column layout: the
// atom's distinct variables sorted, and for each output column the first
// argument position holding it.
func scanLayout(db *DB, s *plan.Scan) (*Relation, []cq.Var, []int) {
	rel := db.Relation(s.Atom.Rel)
	if rel == nil {
		panic(fmt.Sprintf("engine: unknown relation %s", s.Atom.Rel))
	}
	if len(s.Atom.Args) != rel.Arity() {
		panic(fmt.Sprintf("engine: atom %s has arity %d, relation has %d", s.Atom, len(s.Atom.Args), rel.Arity()))
	}
	cols := append([]cq.Var(nil), s.Head()...)
	pos := make([]int, len(cols))
	for i, v := range cols {
		for j, t := range s.Atom.Args {
			if t.Var == v {
				pos[i] = j
				break
			}
		}
	}
	return rel, cols, pos
}

// rowFilter checks constants, repeated variables, and predicates on one
// atom's tuples.
type rowFilter struct {
	consts []filterConst
	equals [][2]int
	preds  []compiledPred
}

// filterConst is a constant selection on one argument position — a
// constant in the atom, or an = predicate: its value for the
// row-at-a-time check, and its dense value id for the kernels, or -1
// when no stored tuple holds the value.
type filterConst struct {
	pos int
	val Value
	id  int32
}

func newFilterConst(db *DB, pos int, lit string) filterConst {
	v := db.lookupConst(lit)
	id, ok := db.valIDs[v]
	if !ok {
		id = -1
	}
	return filterConst{pos, v, id}
}

func newRowFilter(db *DB, atom cq.Atom, preds []cq.Predicate) *rowFilter {
	f := &rowFilter{}
	seen := map[cq.Var]int{}
	for j, t := range atom.Args {
		if !t.IsVar() {
			f.consts = append(f.consts, newFilterConst(db, j, t.Const))
			continue
		}
		if prev, ok := seen[t.Var]; ok {
			f.equals = append(f.equals, [2]int{prev, j})
		} else {
			seen[t.Var] = j
		}
	}
	for _, p := range preds {
		j, ok := seen[p.Var]
		switch {
		case !ok:
		case p.Op == cq.OpEQ:
			f.consts = append(f.consts, newFilterConst(db, j, p.Const))
		default:
			f.preds = append(f.preds, compilePred(db, p, j))
		}
	}
	return f
}

func (f *rowFilter) empty() bool {
	return len(f.consts) == 0 && len(f.equals) == 0 && len(f.preds) == 0
}

// ok is the row-at-a-time check on a tuple's values, the reference the
// kernels of apply must agree with.
func (f *rowFilter) ok(row []Value) bool {
	for _, c := range f.consts {
		if row[c.pos] != c.val {
			return false
		}
	}
	for _, eq := range f.equals {
		if row[eq[0]] != row[eq[1]] {
			return false
		}
	}
	for _, p := range f.preds {
		if !p.okVal(row[p.pos]) {
			return false
		}
	}
	return true
}

// apply runs the filter as a sequence of selection-vector kernels: each
// component refines the vector in one tight pass over the relation's
// flattened storage. Constants (= predicates among them) and repeated
// variables compare dense value ids, since equal values have equal ids;
// the other predicates compare values. It returns (sel, all); all=true
// means every row of the relation qualifies and sel is nil (the caller
// copies the columns wholesale). A filter with components returns a
// vector taken from ar; an empty one passes cand through.
func (f *rowFilter) apply(rel *Relation, cand []int32, restricted bool, c *canceller, ar *arena) ([]int32, bool) {
	if f.empty() {
		if restricted {
			return cand, false
		}
		return nil, true
	}
	for _, cst := range f.consts {
		if cst.id < 0 { // no stored tuple holds the constant
			return []int32{}, false
		}
	}
	var sel []int32
	if restricted {
		// Never compact the caller's candidate slice in place: the
		// reduction owns it.
		sel = ar.int32s(len(cand))
		copy(sel, cand)
	} else {
		n := rel.Len()
		sel = ar.int32s(n)
		for i := range sel {
			sel[i] = int32(i)
		}
	}
	a := rel.Arity()
	vids := rel.vids
	for _, cst := range f.consts {
		out := sel[:0]
		for _, ri := range sel {
			c.check()
			if vids[int(ri)*a+cst.pos] == cst.id {
				out = append(out, ri)
			}
		}
		sel = out
	}
	for _, eq := range f.equals {
		out := sel[:0]
		for _, ri := range sel {
			c.check()
			base := int(ri) * a
			if vids[base+eq[0]] == vids[base+eq[1]] {
				out = append(out, ri)
			}
		}
		sel = out
	}
	for _, p := range f.preds {
		sel = p.filter(sel, rel.rows, a, c)
	}
	return sel, false
}

// compiledPred is one pushed-down comparison bound to an argument
// position. Equalities compile to filterConsts instead.
type compiledPred struct {
	pos  int
	op   cq.CompareOp
	num  Value        // for numeric comparisons
	like *likePattern // for LIKE
	db   *DB
}

func compilePred(db *DB, p cq.Predicate, pos int) compiledPred {
	c := compiledPred{pos: pos, op: p.Op, db: db}
	if p.Op == cq.OpLike {
		c.like = compileLike(p.Const)
	} else {
		c.num = db.lookupConst(p.Const)
	}
	return c
}

// okVal is the predicate on one value, the reference filter's kernels
// must agree with. Order comparisons hold only between numbers (values
// >= 0).
func (c compiledPred) okVal(v Value) bool {
	switch c.op {
	case cq.OpLE:
		return v >= 0 && c.num >= 0 && v <= c.num
	case cq.OpLT:
		return v >= 0 && c.num >= 0 && v < c.num
	case cq.OpGE:
		return v >= 0 && c.num >= 0 && v >= c.num
	case cq.OpGT:
		return v >= 0 && c.num >= 0 && v > c.num
	case cq.OpEQ:
		return v == c.num
	case cq.OpNE:
		return v != c.num
	case cq.OpLike:
		return c.like.match(c.db.Decode(v))
	default:
		panic("engine: unknown predicate op")
	}
}

// filter compacts sel to the rows whose value at c.pos satisfies the
// predicate, the op switch hoisted out of the row loops: the four order
// comparisons become one closed numeric interval [lo, hi], and != and
// LIKE are a loop each.
func (c compiledPred) filter(sel []int32, rows []Value, a int, cc *canceller) []int32 {
	out := sel[:0]
	switch c.op {
	case cq.OpLE, cq.OpLT, cq.OpGE, cq.OpGT:
		if c.num < 0 {
			return out
		}
		lo, hi := Value(0), Value(math.MaxInt64)
		switch c.op {
		case cq.OpLE:
			hi = c.num
		case cq.OpLT:
			hi = c.num - 1
		case cq.OpGE:
			lo = c.num
		case cq.OpGT:
			if c.num == math.MaxInt64 {
				return out
			}
			lo = c.num + 1
		}
		for _, ri := range sel {
			cc.check()
			if v := rows[int(ri)*a+c.pos]; v >= lo && v <= hi {
				out = append(out, ri)
			}
		}
	case cq.OpNE:
		for _, ri := range sel {
			cc.check()
			if rows[int(ri)*a+c.pos] != c.num {
				out = append(out, ri)
			}
		}
	case cq.OpLike:
		for _, ri := range sel {
			cc.check()
			if c.like.match(c.db.Decode(rows[int(ri)*a+c.pos])) {
				out = append(out, ri)
			}
		}
	default:
		panic("engine: unknown predicate op")
	}
	return out
}

// likePattern is an SQL LIKE pattern, with % (any run) and _ (any one
// byte) wildcards, split at its % signs: the first segment
// is anchored at the start of the string, the last at its end, and the
// non-empty segments between them must occur in order, without overlap,
// in what the two anchors leave. Taking each at its leftmost occurrence
// is enough: an earlier match never leaves less room for the rest.
type likePattern struct {
	open   bool // the pattern has a %; false makes prefix the whole pattern
	prefix likeSeg
	middle []likeSeg
	suffix likeSeg
}

// likeSeg is a %-free run of a pattern; wild records that it has a _.
type likeSeg struct {
	text string
	wild bool
}

func compileLike(pattern string) *likePattern {
	parts := strings.Split(pattern, "%")
	segs := make([]likeSeg, len(parts))
	for i, t := range parts {
		segs[i] = likeSeg{text: t, wild: strings.IndexByte(t, '_') >= 0}
	}
	p := &likePattern{prefix: segs[0]}
	if len(segs) == 1 {
		return p
	}
	p.open = true
	p.suffix = segs[len(segs)-1]
	for _, sg := range segs[1 : len(segs)-1] {
		if sg.text != "" {
			p.middle = append(p.middle, sg)
		}
	}
	return p
}

func (p *likePattern) match(s string) bool {
	if !p.open {
		return len(s) == len(p.prefix.text) && p.prefix.matchAt(s)
	}
	if len(s) < len(p.prefix.text)+len(p.suffix.text) {
		return false
	}
	tail := len(s) - len(p.suffix.text)
	if !p.prefix.matchAt(s) || !p.suffix.matchAt(s[tail:]) {
		return false
	}
	s = s[len(p.prefix.text):tail]
	for i := range p.middle {
		at := p.middle[i].index(s)
		if at < 0 {
			return false
		}
		s = s[at+len(p.middle[i].text):]
	}
	return true
}

// matchAt reports whether the segment matches at the start of s.
func (g *likeSeg) matchAt(s string) bool {
	if !g.wild {
		return strings.HasPrefix(s, g.text)
	}
	if len(s) < len(g.text) {
		return false
	}
	for i := 0; i < len(g.text); i++ {
		if g.text[i] != '_' && g.text[i] != s[i] {
			return false
		}
	}
	return true
}

// index returns the leftmost position where the segment matches in s,
// or -1.
func (g *likeSeg) index(s string) int {
	if !g.wild {
		return strings.Index(s, g.text)
	}
	for i := 0; i+len(g.text) <= len(s); i++ {
		if g.matchAt(s[i:]) {
			return i
		}
	}
	return -1
}

// projAccum is the one projection operator: it folds a row sequence —
// a materialized child's rows, or the fused π(⋈) probe's matches — into
// the grouping result in a single pass on the calling goroutine. The
// caller finds each row's global group — by interning the row's key
// into g, or, in the fused π(⋈) over a high fan-out join, by a
// direct-address cell (see stream.go) — numbering unseen groups in
// first-appearance order through newGroup, and hands the row to accum.
// Both lookups keep the group's chunk-local slot beside it (an aux word
// in the cache line the lookup already loaded, so a row costs one random
// memory access, not three). accum is the one accumulate
// step: chunk-local complement partials accumulate in sparse per-chunk
// scratch (touched/partial) and fold into the global scores at every
// morselSize boundary. That float-operation sequence — per-chunk
// ∏(1 − s) in row order, partials folded chunk-ascending in first-touch
// order — is the one the row-at-a-time oracle's per-chunk tables and
// merge perform, so outputs are bit-identical to it. The lookups are
// inlined at their call sites rather than wrapped in methods: a call per
// row is measurable in these loops.
type projAccum struct {
	out     *Result
	room    int         // rows every column of out has room for
	g       *groupTable // hashed groups; nil when groups are addressed by cell
	cells   []groupCell // direct-address groups by cell
	ka      int
	key     []int32   // scratch: the current row's key ids
	touched []int32   // gids touched this chunk, in first-touch order
	partial []float64 // parallel to touched: chunk-local ∏(1 − s)
	fill    int       // rows accumulated in the current chunk
	fresh   int       // chunk-local first touches not yet charged
	ex      *exec
	chunks  int
}

// projAccumHint caps the size hint a projection passes for its group
// table. The group count is at most the input's row count but unknown
// before the pass, so a caller passes min(rows, projAccumHint): a small
// input gets a small table, a large one starts at a couple of morsels,
// and either doubles as needed (rehashing touches only groups, never
// rows).
const projAccumHint = 2 * morselSize

// groupCell is one direct-address cell: its group's id + 1 (0 = no
// group yet) and, beside it as in groupSlot, the group's chunk-local
// slot.
type groupCell struct{ ref, aux int32 }

// newProjAccum returns an accumulator whose groups are found by hashing
// into g when cells is 0, or by a direct-address table of that many
// cells. There are at most as many groups as cells, and the caller
// bounds cells by its input size, so the output is sized for all of them
// up front.
func newProjAccum(onto []cq.Var, dict []Value, sizeHint, cells int, ex *exec) *projAccum {
	ka := len(onto)
	chunk := min(sizeHint, morselSize)
	ar := ex.arena()
	pa := &projAccum{
		out:     newResult(append([]cq.Var(nil), onto...), dict),
		ka:      ka,
		key:     ar.int32s(ka),
		touched: ar.int32s(chunk)[:0],
		partial: ar.float64s(chunk)[:0],
		ex:      ex,
	}
	if cells > 0 {
		pa.cells = ar.zeroCells(cells)
		pa.room = ar.reserveRows(pa.out, cells)
	} else {
		pa.g = newGroupTable(ar, ka, sizeHint)
	}
	return pa
}

// newGroup appends the group keyed by the caller's pa.key, with an empty
// product, as the next output row.
func (pa *projAccum) newGroup() {
	if len(pa.out.scores) == pa.room {
		pa.room = pa.ex.arena().reserveRows(pa.out, 1)
	}
	for k := 0; k < pa.ka; k++ {
		pa.out.ids[k] = append(pa.out.ids[k], pa.key[k])
	}
	pa.out.scores = append(pa.out.scores, 1)
}

// accum multiplies 1 − score into group gid's chunk-local partial. aux
// is the group's slot scratch: it names the group's entry in the current
// chunk's partials iff that entry exists and names gid back; anything
// else is a stale value from an earlier chunk.
func (pa *projAccum) accum(gid int32, aux *int32, score float64) {
	a := *aux
	if int(a) >= len(pa.touched) || pa.touched[a] != gid {
		if len(pa.touched) == cap(pa.touched) || len(pa.partial) == cap(pa.partial) {
			pa.growChunk()
		}
		a = int32(len(pa.touched))
		*aux = a
		pa.touched = append(pa.touched, gid)
		pa.partial = append(pa.partial, 1)
		pa.fresh++
	}
	pa.partial[a] *= 1 - score
	pa.fill++
	if pa.fill == morselSize {
		pa.flushChunk()
	}
}

// growChunk makes room for one more chunk-local group through the arena.
// The fused π(⋈) sizes the chunk scratch from its input rows, but a chunk
// counts join matches and can touch more groups than that; a buffer
// grown by append would go back to the arena without having come from it.
func (pa *projAccum) growChunk() {
	ar := pa.ex.arena()
	pa.touched = reserve(pa.touched, 1, ar.int32s, ar.putInt32s)
	pa.partial = reserve(pa.partial, 1, ar.float64s, ar.putFloat64s)
}

// flushChunk folds the chunk's partials into the global scores (chunk
// order, first-touch order within the chunk) and charges the chunk's
// fresh groups to the budget in one batch — the totals per-row charging
// would reach.
func (pa *projAccum) flushChunk() {
	if pa.fill == 0 {
		return
	}
	pa.ex.charge(pa.fresh)
	for i, gid := range pa.touched {
		pa.out.scores[gid] *= pa.partial[i]
	}
	pa.touched = pa.touched[:0]
	pa.partial = pa.partial[:0]
	pa.fresh = 0
	pa.fill = 0
	pa.chunks++
}

// finish folds the last chunk, completes the scores and gives back the
// accumulator's scratch.
func (pa *projAccum) finish() *Result {
	pa.flushChunk()
	if pa.chunks > 1 {
		pa.ex.addPartitions(pa.chunks)
	}
	for i := range pa.out.scores {
		pa.out.scores[i] = 1 - pa.out.scores[i]
	}
	ar := pa.ex.arena()
	ar.putInt32s(pa.key)
	ar.putInt32s(pa.touched)
	ar.putFloat64s(pa.partial)
	ar.putCells(pa.cells)
	pa.g.release()
	return pa.out
}

// project groups the child's rows by the kept columns and combines the
// scores of each group as independent events: 1 − ∏(1 − s). This is the
// probabilistic duplicate-eliminating projection π^p over a
// materialized child; Project(Join) takes the fused route in stream.go,
// which feeds the same projAccum.
func project(in *Result, onto []cq.Var, ex *exec) *Result {
	n := in.Len()
	if n == 0 {
		return newResult(append([]cq.Var(nil), onto...), in.dict)
	}
	ka := len(onto)
	keyIDs := make([][]int32, ka)
	for k, v := range onto {
		keyIDs[k] = in.ids[colIndex(in.Cols, v)]
	}
	pa := newProjAccum(onto, in.dict, min(n, projAccumHint), 0, ex)
	c := ex.canc()
	for i := 0; i < n; i++ {
		c.check()
		for k := 0; k < ka; k++ {
			pa.key[k] = keyIDs[k][i]
		}
		g, fresh := pa.g.internSlot(keySig(pa.key), pa.key)
		if fresh {
			pa.newGroup()
		}
		pa.accum(g.ref-1, &g.aux, in.scores[i])
	}
	return pa.finish()
}

// joinFn is a binary join operator — the streaming columnar join or the
// retained row-at-a-time oracle join. Fold ordering is shared between
// them so both executors make identical fold decisions.
type joinFn func(l, r *Result, ex *exec) *Result

// greedyJoinOrder replicates the fold ordering of the original
// evaluator: inputs sorted by size ascending, then greedily the smallest
// remaining input sharing a column with the accumulated column set,
// falling back to a cross product only when no input connects. Returns
// indices into results.
func greedyJoinOrder(results []*Result) []int {
	type item struct {
		idx int
		r   *Result
	}
	remaining := make([]item, len(results))
	for i, r := range results {
		remaining[i] = item{i, r}
	}
	sort.Slice(remaining, func(i, j int) bool { return remaining[i].r.Len() < remaining[j].r.Len() })
	order := make([]int, 0, len(results))
	order = append(order, remaining[0].idx)
	have := cq.NewVarSet(remaining[0].r.Cols...)
	remaining = remaining[1:]
	for len(remaining) > 0 {
		pick := -1
		for i, it := range remaining {
			connected := false
			for _, c := range it.r.Cols {
				if have.Has(c) {
					connected = true
					break
				}
			}
			if connected && (pick < 0 || it.r.Len() < remaining[pick].r.Len()) {
				pick = i
			}
		}
		if pick < 0 {
			pick = 0 // genuine cross product (disconnected plan)
		}
		order = append(order, remaining[pick].idx)
		for _, c := range remaining[pick].r.Cols {
			have.Add(c)
		}
		remaining = append(remaining[:pick], remaining[pick+1:]...)
	}
	return order
}

// foldJoin joins several results in greedy smallest-connected order,
// giving back each intermediate join once the next has consumed it. The
// inputs stay the caller's.
func foldJoin(results []*Result, ex *exec, jf joinFn) *Result {
	if len(results) == 1 {
		return results[0]
	}
	order := greedyJoinOrder(results)
	cur := results[order[0]]
	for k, i := range order[1:] {
		next := jf(cur, results[i], ex)
		if k > 0 {
			ex.arena().putResult(cur)
		}
		cur = next
	}
	return cur
}

// joinLayout fixes the column plumbing of one binary join: the output
// columns (union, sorted), each output column's source side and
// position, and the build/probe assignment (build = smaller input).
type joinLayout struct {
	outCols   []cq.Var
	fromBuild []bool
	pos       []int
	build     *Result
	probe     *Result
	buildPos  []int
	probePos  []int
}

func makeJoinLayout(l, r *Result) joinLayout {
	_, lPos, rPos := sharedCols(l.Cols, r.Cols)
	colSet := cq.NewVarSet(l.Cols...)
	for _, c := range r.Cols {
		colSet.Add(c)
	}
	jl := joinLayout{outCols: colSet.Sorted()}
	jl.build, jl.probe = r, l
	jl.buildPos, jl.probePos = rPos, lPos
	buildLeft := false
	if l.Len() < r.Len() {
		jl.build, jl.probe = l, r
		jl.buildPos, jl.probePos = lPos, rPos
		buildLeft = true
	}
	jl.fromBuild = make([]bool, len(jl.outCols))
	jl.pos = make([]int, len(jl.outCols))
	for i, c := range jl.outCols {
		if j := colIndex(l.Cols, c); j >= 0 {
			jl.fromBuild[i] = buildLeft
			jl.pos[i] = j
		} else {
			jl.fromBuild[i] = !buildLeft
			jl.pos[i] = colIndex(r.Cols, c)
		}
	}
	return jl
}

// join computes the natural join of two results on their shared columns,
// multiplying scores.
//
// The build side is hashed into one table pre-sized from its cardinality
// (see buildJoinTable). The probe runs in two vectorized passes: pass one
// records each probe row's match span (start, count) in the table's row
// array and charges the budget once per morselSize probe rows, as
// streamJoinProject does; pass two writes every output column into its
// exactly-sized destination slice. Probe rows go in order and build
// matches ascend within each probe row, so the output is bit-identical to
// a sequential row-at-a-time join.
func join(l, r *Result, ex *exec) *Result {
	jl := makeJoinLayout(l, r)
	jt := buildJoinTable(jl.build, jl.buildPos, ex)
	out := newResult(jl.outCols, l.dict)
	ar := ex.arena()
	np := jl.probe.Len()
	if np == 0 {
		jt.release(ar)
		return out
	}
	probeKeys := make([][]int32, len(jl.probePos))
	for k, j := range jl.probePos {
		probeKeys[k] = jl.probe.ids[j]
	}
	sg := newColSigner(probeKeys)
	wide := sg.wide()
	starts := ar.int32s(np)
	cnts := ar.int32s(np)
	c := ex.canc()
	total, pending := 0, 0
	for i := 0; i < np; i++ {
		c.check()
		var key []int32
		if wide {
			key = sg.keyAt(i)
		}
		s, n := jt.lookupSpan(sg.sig(i), key)
		starts[i], cnts[i] = s, n
		pending += int(n)
		if (i+1)%morselSize == 0 || i == np-1 {
			ex.charge(pending)
			total += pending
			pending = 0
		}
	}
	out.scores = ar.float64s(total)
	for k := range out.Cols {
		out.ids[k] = ar.int32s(total)
	}
	bscores, pscores := jl.build.scores, jl.probe.scores
	o := 0
	for i := 0; i < np; i++ {
		st, n := int(starts[i]), int(cnts[i])
		c.advance(1 + n)
		s := pscores[i]
		for j := 0; j < n; j++ {
			out.scores[o] = s * bscores[jt.rows[st+j]]
			o++
		}
	}
	for k := range out.Cols {
		dst := out.ids[k]
		o = 0
		if jl.fromBuild[k] {
			src := jl.build.ids[jl.pos[k]]
			for i := 0; i < np; i++ {
				st, n := int(starts[i]), int(cnts[i])
				for j := 0; j < n; j++ {
					dst[o] = src[jt.rows[st+j]]
					o++
				}
			}
		} else {
			src := jl.probe.ids[jl.pos[k]]
			for i := 0; i < np; i++ {
				id := src[i]
				for j := int32(0); j < cnts[i]; j++ {
					dst[o] = id
					o++
				}
			}
		}
	}
	ar.putInt32s(starts)
	ar.putInt32s(cnts)
	jt.release(ar)
	return out
}

// minFold folds plan results under the per-answer minimum while
// retaining the accumulator's group table across folds: the first input
// is copied and interned once, and every later fold only probes with
// its own rows — O(total rows) interning over a whole fold chain
// instead of re-interning the growing accumulator per plan. Each step
// observably equals a pairwise min merge that rebuilds its table (the
// oracle's): rows appended during a merge join the table only after
// that merge's probe pass (so duplicate keys within one input append
// separately, exactly as a per-step rebuild would re-intern them
// last-wins), scores merge in the same order, and budget totals are
// unchanged.
type minFold struct {
	out   *Result
	room  int // rows every column of out has room for
	g     *groupTable
	rowOf []int32 // per gid: the last row of out holding that key
	ex    *exec
}

func newMinFold(a *Result, ex *exec) *minFold {
	na := a.Len()
	ar := ex.arena()
	m := &minFold{g: newGroupTable(ar, len(a.Cols), na), ex: ex}
	m.out = newResult(a.Cols, a.dict)
	m.room = ar.reserveRows(m.out, na)
	for k := range a.ids {
		m.out.ids[k] = append(m.out.ids[k], a.ids[k]...)
	}
	m.out.scores = append(m.out.scores, a.scores...)
	m.addRows(0, na)
	return m
}

// finish gives back the fold's table and returns its result.
func (m *minFold) finish() *Result {
	m.g.release()
	m.ex.arena().putInt32s(m.rowOf)
	return m.out
}

// addRows interns out's rows [lo, hi) into the table, last-wins on
// duplicate keys — the same mapping a fresh rebuild over all of out
// would produce.
func (m *minFold) addRows(lo, hi int) {
	ar := m.ex.arena()
	m.rowOf = reserve(m.rowOf, hi-lo, ar.int32s, ar.putInt32s)
	cc := m.ex.canc()
	sg := newColSigner(m.out.ids)
	wide := sg.wide()
	for i := lo; i < hi; i++ {
		cc.check()
		var key []int32
		if wide {
			key = sg.keyAt(i)
		}
		gid, fresh := m.g.internSig(sg.sig(i), key)
		if fresh {
			m.rowOf = append(m.rowOf, int32(i))
		} else {
			m.rowOf[gid] = int32(i)
		}
	}
}

// merge folds one more plan result into the accumulator. Plans of the
// same query always produce the same answer support, so every key is
// expected on both sides; a tuple seen on only one side keeps its score
// (defensive, and correct for the upper-bound semantics).
func (m *minFold) merge(b *Result) {
	if !varsSliceEqual(m.out.Cols, b.Cols) {
		panic(fmt.Sprintf("engine: min over different columns %v vs %v", m.out.Cols, b.Cols))
	}
	cc := m.ex.canc()
	base := m.out.Len()
	bsg := newColSigner(b.ids)
	wide := bsg.wide()
	nb := b.Len()
	appended := 0
	for i := 0; i < nb; i++ {
		cc.check()
		var key []int32
		if wide {
			key = bsg.keyAt(i)
		}
		if gid, ok := m.g.lookupSig(bsg.sig(i), key); ok {
			j := m.rowOf[gid]
			m.out.scores[j] = math.Min(m.out.scores[j], b.scores[i])
		} else {
			appended++
			if len(m.out.scores) == m.room {
				m.room = m.ex.arena().reserveRows(m.out, 1)
			}
			for k := range m.out.ids {
				m.out.ids[k] = append(m.out.ids[k], b.ids[k][i])
			}
			m.out.scores = append(m.out.scores, b.scores[i])
		}
	}
	if appended > 0 {
		m.ex.charge(appended)
		m.addRows(base, base+appended)
	}
}

// SemiJoinReduceCtx performs the full deterministic semi-join reduction
// of Optimization 3: every atom's relation is repeatedly reduced by
// semi-joins with the other atoms it shares variables with, until
// fixpoint. It returns the surviving row indices per relation (only
// entries for the query's atoms are present). Constant selections and
// predicates are applied first, so the reduction starts from the
// selected subsets. ctx is polled as NewEvaluatorCtx describes.
func SemiJoinReduceCtx(ctx context.Context, db *DB, q *cq.Query) map[string][]int32 {
	return semiJoinReduce(db, q, &canceller{ctx: ctx}, nil)
}

// semiJoinReduce computes the reduction as a chaotic iteration of the
// pairwise semi-joins a ⋉ b over every ordered atom pair sharing an
// existential variable. Each atom carries a version that moves when its
// live set shrinks, and an edge re-runs only when b's version moved since
// the edge last ran, so no pass exists just to discover nothing changed.
// The semi-joins are monotone and only ever shrink their left side, so
// every fair order reaches the one greatest fixpoint below the selected
// subsets, and live stays in ascending row order: the returned sets do
// not depend on the schedule (DESIGN.md, "Opt3 reduction"). The live
// sets come from ar and are the caller's; the scratch goes back to it.
func semiJoinReduce(db *DB, q *cq.Query, c *canceller, ar *arena) map[string][]int32 {
	type atomInfo struct {
		rel     *Relation
		live    []int32
		varPos  map[cq.Var]int // each variable's first argument position
		version int            // bumped whenever live shrinks
	}
	head := q.HeadSet()
	infos := make([]*atomInfo, len(q.Atoms))
	for i, a := range q.Atoms {
		rel := db.Relation(a.Rel)
		if rel == nil {
			panic(fmt.Sprintf("engine: unknown relation %s", a.Rel))
		}
		info := &atomInfo{rel: rel, varPos: map[cq.Var]int{}}
		for j, t := range a.Args {
			if t.IsVar() {
				if _, ok := info.varPos[t.Var]; !ok {
					info.varPos[t.Var] = j
				}
			}
		}
		filter := newRowFilter(db, a, q.PredsOnAtom(a))
		sel, all := filter.apply(rel, nil, false, c, ar)
		if all {
			info.live = ar.int32s(rel.Len())
			for r := range info.live {
				info.live[r] = int32(r)
			}
		} else {
			info.live = sel
		}
		infos[i] = info
	}
	// One edge per ordered atom pair sharing an existential variable, with
	// the shared variables' argument positions hoisted out of the row loops.
	type edge struct {
		a, b       *atomInfo
		apos, bpos []int
		ran        int // b.version when the edge last ran; -1 = never
	}
	var edges []edge
	for i, a := range infos {
		for j, b := range infos {
			if i == j {
				continue
			}
			var vars []cq.Var
			for v := range a.varPos {
				if _, ok := b.varPos[v]; ok && !head.Has(v) {
					vars = append(vars, v)
				}
			}
			if len(vars) == 0 {
				continue
			}
			sort.Slice(vars, func(x, y int) bool { return vars[x] < vars[y] })
			e := edge{a: a, b: b, ran: -1}
			for _, v := range vars {
				e.apos = append(e.apos, a.varPos[v])
				e.bpos = append(e.bpos, b.varPos[v])
			}
			edges = append(edges, e)
		}
	}
	// Every stored value id is below len(db.vals) (noteValue hands them
	// out densely; clones copy the map before extending it), so one bitset
	// of that many bits, reused by every edge, can hold any key set.
	words := (len(db.vals) + 63) / 64
	var bits []uint64
	for changed := true; changed; {
		changed = false
		for x := range edges {
			e := &edges[x]
			a, b := e.a, e.b
			if e.ran == b.version {
				continue
			}
			e.ran = b.version
			var kept []int32
			if len(e.apos) == 1 && words <= len(a.live)+len(b.live) {
				// Clearing the bitset costs no more than the two row passes.
				if bits == nil {
					bits = ar.uint64s(words)
				}
				clear(bits)
				kept = semiJoinBits(a.rel, a.live, e.apos[0], b.rel, b.live, e.bpos[0], bits, c)
			} else {
				kept = semiJoinHash(a.rel, a.live, e.apos, b.rel, b.live, e.bpos, c, ar)
			}
			if len(kept) != len(a.live) {
				a.live = kept
				a.version++
				changed = true
			}
		}
	}
	ar.putUint64s(bits)
	out := make(map[string][]int32, len(infos))
	for _, info := range infos {
		out[info.rel.Name] = info.live
	}
	return out
}

// semiJoinBits compacts alive in place to the rows whose value id at
// argument apos occurs at bpos among b's live rows. bits must be zeroed
// and hold one bit per value id of the database. Cancellation is polled
// once per cancelCheckInterval-row block.
func semiJoinBits(a *Relation, alive []int32, apos int, b *Relation, blive []int32, bpos int, bits []uint64, c *canceller) []int32 {
	bar, bvids := b.Arity(), b.vids
	for len(blive) > 0 {
		c.checkNow()
		blk := blive[:min(len(blive), cancelCheckInterval)]
		blive = blive[len(blk):]
		for _, r := range blk {
			id := uint32(bvids[int(r)*bar+bpos])
			bits[id>>6] |= 1 << (id & 63)
		}
	}
	aar, avids := a.Arity(), a.vids
	kept := alive[:0]
	for len(alive) > 0 {
		c.checkNow()
		blk := alive[:min(len(alive), cancelCheckInterval)]
		alive = alive[len(blk):]
		for _, r := range blk {
			id := uint32(avids[int(r)*aar+apos])
			if bits[id>>6]&(1<<(id&63)) != 0 {
				kept = append(kept, r)
			}
		}
	}
	return kept
}

// semiJoinHash is semiJoinBits for composite keys, and for single keys
// when both sides are so small that clearing the bitset would dominate:
// b's keys go into a groupTable sized to b's live rows.
func semiJoinHash(a *Relation, alive []int32, apos []int, b *Relation, blive []int32, bpos []int, c *canceller, ar *arena) []int32 {
	keys := newGroupTable(ar, len(bpos), len(blive))
	defer keys.release()
	key := make([]int32, len(bpos))
	for _, r := range blive {
		c.check()
		row := b.vidRow(int(r))
		for x, p := range bpos {
			key[x] = row[p]
		}
		keys.intern(key)
	}
	kept := alive[:0]
	for _, r := range alive {
		c.check()
		row := a.vidRow(int(r))
		for x, p := range apos {
			key[x] = row[p]
		}
		if _, ok := keys.lookup(key); ok {
			kept = append(kept, r)
		}
	}
	return kept
}

func colIndex(cols []cq.Var, v cq.Var) int {
	for i, c := range cols {
		if c == v {
			return i
		}
	}
	return -1
}

func sharedCols(l, r []cq.Var) (vars []cq.Var, lPos, rPos []int) {
	for i, c := range l {
		if j := colIndex(r, c); j >= 0 {
			vars = append(vars, c)
			lPos = append(lPos, i)
			rPos = append(rPos, j)
		}
	}
	return
}

func varsSliceEqual(a, b []cq.Var) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
