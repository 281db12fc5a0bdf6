package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

// refLineage is the output of evalLineageRef: per answer, its head
// values and its clauses.
type refLineage struct {
	cols    []cq.Var
	keys    [][]Value
	clauses [][][]int32
}

// evalLineageRef is the lineage evaluator Evaluator.Lineage replaced,
// kept as the differential reference: a row-at-a-time scan, a left-deep
// join in connectivity order over byte-encoded keys, grouping through a
// string map, and a per-answer clause dedupe.
func evalLineageRef(ctx context.Context, db *DB, q *cq.Query, reduced map[string][]int32) *refLineage {
	cancel := &canceller{ctx: ctx}
	type lrel struct {
		cols []cq.Var
		rows [][]Value
		vars [][]int32
	}
	scanAtom := func(a cq.Atom) *lrel {
		rel := db.Relation(a.Rel)
		s := plan.NewScan(a, q.PredsOnAtom(a))
		filter := newRowFilter(db, s.Atom, s.Preds)
		cols := s.Head()
		pos := make([]int, len(cols))
		for i, v := range cols {
			for j, t := range a.Args {
				if t.Var == v {
					pos[i] = j
					break
				}
			}
		}
		out := &lrel{cols: cols}
		emit := func(i int) {
			cancel.check()
			row := rel.Row(i)
			if !filter.ok(row) {
				return
			}
			vals := make([]Value, len(cols))
			for k, j := range pos {
				vals[k] = row[j]
			}
			out.rows = append(out.rows, vals)
			if id := rel.VarID(i); id >= 0 {
				out.vars = append(out.vars, []int32{id})
			} else {
				out.vars = append(out.vars, nil)
			}
		}
		if reduced != nil {
			if idxs, ok := reduced[rel.Name]; ok {
				for _, i := range idxs {
					emit(int(i))
				}
				return out
			}
		}
		for i := 0; i < rel.Len(); i++ {
			emit(i)
		}
		return out
	}
	joinL := func(l, r *lrel) *lrel {
		_, lPos, rPos := sharedCols(l.cols, r.cols)
		colSet := cq.NewVarSet(l.cols...)
		for _, c := range r.cols {
			colSet.Add(c)
		}
		outCols := colSet.Sorted()
		type src struct {
			left bool
			pos  int
		}
		srcs := make([]src, len(outCols))
		for i, c := range outCols {
			if j := colIndex(l.cols, c); j >= 0 {
				srcs[i] = src{true, j}
			} else {
				srcs[i] = src{false, colIndex(r.cols, c)}
			}
		}
		table := map[string][]int32{}
		key := make([]byte, 0, 16)
		for i := range r.rows {
			key = key[:0]
			for _, j := range rPos {
				key = appendValue(key, r.rows[i][j])
			}
			table[string(key)] = append(table[string(key)], int32(i))
		}
		out := &lrel{cols: outCols}
		for i := range l.rows {
			key = key[:0]
			for _, j := range lPos {
				key = appendValue(key, l.rows[i][j])
			}
			for _, ri := range table[string(key)] {
				cancel.check()
				vals := make([]Value, len(outCols))
				for k, s := range srcs {
					if s.left {
						vals[k] = l.rows[i][s.pos]
					} else {
						vals[k] = r.rows[ri][s.pos]
					}
				}
				vs := make([]int32, 0, len(l.vars[i])+len(r.vars[ri]))
				vs = append(vs, l.vars[i]...)
				vs = append(vs, r.vars[ri]...)
				out.rows = append(out.rows, vals)
				out.vars = append(out.vars, vs)
			}
		}
		return out
	}

	atoms := orderAtomsByConnectivity(q.Atoms)
	cur := scanAtom(atoms[0])
	for _, a := range atoms[1:] {
		cur = joinL(cur, scanAtom(a))
	}

	// Group by head values.
	head := append([]cq.Var(nil), q.Head...)
	sort.Slice(head, func(i, j int) bool { return head[i] < head[j] })
	keep := make([]int, len(head))
	for i, v := range head {
		keep[i] = colIndex(cur.cols, v)
	}
	out := &refLineage{cols: head}
	groups := map[string]int{}
	key := make([]byte, 0, 16)
	for i := range cur.rows {
		cancel.check()
		key = key[:0]
		for _, j := range keep {
			key = appendValue(key, cur.rows[i][j])
		}
		g, ok := groups[string(key)]
		if !ok {
			g = len(out.keys)
			groups[string(key)] = g
			vals := make([]Value, len(head))
			for k, j := range keep {
				vals[k] = cur.rows[i][j]
			}
			out.keys = append(out.keys, vals)
			out.clauses = append(out.clauses, nil)
		}
		clause := append([]int32(nil), cur.vars[i]...)
		sort.Slice(clause, func(a, b int) bool { return clause[a] < clause[b] })
		out.clauses[g] = append(out.clauses[g], clause)
	}
	// Deduplicate identical clauses per answer (repeated variables inside
	// a clause are also collapsed by the sort + unique pass).
	for g := range out.clauses {
		out.clauses[g] = dedupeClausesRef(out.clauses[g])
	}
	return out
}

func dedupeClausesRef(cs [][]int32) [][]int32 {
	seen := map[string]bool{}
	var out [][]int32
	key := make([]byte, 0, 32)
	for _, c := range cs {
		// Collapse duplicate variables within the clause (sorted already).
		uniq := c[:0]
		for i, v := range c {
			if i == 0 || c[i-1] != v {
				uniq = append(uniq, v)
			}
		}
		key = key[:0]
		for _, v := range uniq {
			key = appendValue(key, Value(v))
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, uniq)
		}
	}
	return out
}

// appendValue appends v's value key (AppendKey): a byte key for the
// reference's maps and the tests' answer maps.
func appendValue(b []byte, v Value) []byte { return AppendKey(b, []Value{v}) }

// clauseSet renders a DNF as the sorted list of its sorted clauses.
func clauseSet(cs [][]int32) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		c = slices.Clone(c)
		slices.Sort(c)
		out[i] = fmt.Sprint(c)
	}
	slices.Sort(out)
	return out
}

// assertCanonical checks the layout contract: ids ascend within a
// clause, and an answer's clauses strictly ascend lexicographically.
func assertCanonical(t *testing.T, label string, lin *Lineage) {
	t.Helper()
	for i := 0; i < lin.Len(); i++ {
		cs := lin.Clauses(i)
		if len(cs) != lin.Size(i) || len(cs) == 0 {
			t.Fatalf("%s: answer %d has %d clauses, Size %d", label, i, len(cs), lin.Size(i))
		}
		for x, c := range cs {
			if !slices.IsSorted(c) {
				t.Fatalf("%s: answer %d clause %v is not sorted", label, i, c)
			}
			if x > 0 && slices.Compare(cs[x-1], c) >= 0 {
				t.Fatalf("%s: answer %d clauses %v, %v are out of order or repeated", label, i, cs[x-1], c)
			}
		}
	}
}

func assertLineageMatchesRef(t *testing.T, label string, db *DB, q *cq.Query, reduced map[string][]int32) {
	t.Helper()
	got := EvalLineageCtx(nil, db, q, reduced)
	want := evalLineageRef(nil, db, q, reduced)
	label = fmt.Sprintf("%s: %s (reduced=%v)", label, q, reduced != nil)
	if !slices.Equal(got.Cols, want.cols) {
		t.Fatalf("%s: columns %v, want %v", label, got.Cols, want.cols)
	}
	if got.Len() != len(want.keys) {
		t.Fatalf("%s: %d answers, want %d", label, got.Len(), len(want.keys))
	}
	byKey := map[string]int{}
	for i, k := range want.keys {
		byKey[string(AppendKey(nil, k))] = i
	}
	maxSize := 0
	for i := 0; i < got.Len(); i++ {
		j, ok := byKey[string(AppendKey(nil, got.Key(i)))]
		if !ok {
			t.Fatalf("%s: answer %v not in the reference", label, got.Key(i))
		}
		if g, w := clauseSet(got.Clauses(i)), clauseSet(want.clauses[j]); !slices.Equal(g, w) {
			t.Fatalf("%s: answer %v\n got %v\nwant %v", label, got.Key(i), g, w)
		}
		maxSize = max(maxSize, len(want.clauses[j]))
	}
	if got.MaxSize() != maxSize {
		t.Fatalf("%s: MaxSize %d, want %d", label, got.MaxSize(), maxSize)
	}
	assertCanonical(t, label, got)
}

// randomLineageDB fills every relation of q with random tuples over a
// small domain, repeats allowed; each relation is deterministic with
// probability pDet. The first pad variable ids go to a relation Pad.
func randomLineageDB(q *cq.Query, domain, maxRows int, pDet float64, pad int, rng *rand.Rand) *DB {
	db := NewDB()
	padRel := db.CreateRelation("Pad", []string{"v"})
	for v := 0; v < pad; v++ {
		padRel.Insert([]Value{Value(v)}, 0.5)
	}
	for _, a := range q.Atoms {
		cols := make([]string, len(a.Args))
		for i := range cols {
			cols[i] = string(rune('c' + i))
		}
		det := rng.Float64() < pDet
		r := db.CreateRelation(a.Rel, cols)
		r.Deterministic = det
		tuple := make([]Value, len(cols))
		for n := 1 + rng.Intn(maxRows); n > 0; n-- {
			for j := range tuple {
				tuple[j] = Value(rng.Intn(domain))
			}
			p := 0.05 + 0.9*rng.Float64()
			if det {
				p = 1
			}
			r.Insert(tuple, p)
		}
	}
	return db
}

// lineageShapes are the query shapes of the lineage differential and
// metamorphic tests, as atoms and comparisons joined into a body.
var lineageShapes = []struct {
	head  string
	atoms []string
	preds []string
}{
	{"q(x0)", []string{"R1(x0, x1)", "R2(x1, x2)"}, nil},                           // 2-chain
	{"q(x0, x3)", []string{"R1(x0, x1)", "R2(x1, x2)", "R3(x2, x3)"}, nil},         // 3-chain
	{"q()", []string{"R1(x0, x1)", "R2(x1, x2)", "R3(x2, x3)", "R4(x3, x4)"}, nil}, // Boolean 4-chain
	{"q(x)", []string{"R0(x, y, z)", "R1(x)", "R2(y)", "R3(z)"}, nil},              // star
	{"q(y)", []string{"R(x, 2)", "S(x, y)", "T(y, 1)"}, nil},                       // constants
	{"q()", []string{"R(x, 'nowhere')", "S(x, y)"}, nil},                           // unknown constant
	{"q(x)", []string{"R(x, x)", "S(x, y)", "T(y, y, z)"}, nil},                    // repeated variables
	{"q(x)", []string{"R(x, y)", "S(y, z)", "T(z)"}, []string{"z <= 2", "y != 1"}}, // predicates
	{"q(x, y)", []string{"R(x)", "S(y)"}, nil},                                     // cross product
	{"q()", []string{"R(x)", "S(x, y)", "T(y)"}, nil},                              // Boolean, unsafe
	{"q(a)", []string{"A(a, b)", "B(b, c)", "C(c, d)", "D(d, e)", "E(e, f)"}, nil}, // 5 ids per clause
	{"q(x, x)", []string{"R(x, y)", "S(y, z)"}, nil},                               // repeated head variable
}

func shapeQuery(head string, atoms, preds []string) *cq.Query {
	return cq.MustParse(head + " :- " + strings.Join(append(slices.Clone(atoms), preds...), ", "))
}

// TestPropLineageMatchesReference: per answer, Evaluator.Lineage yields
// the same set of clauses as the evaluator it replaced, in canonical
// order — on random instances of every lineage shape, with and without
// deterministic relations (whose rows repeat clauses), with and without
// the Opt3 reduction, with small and with 13-bit variable ids; and on the
// chain, star and TPC-H shapes at size.
func TestPropLineageMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 20*len(lineageShapes); iter++ {
		sh := lineageShapes[iter%len(lineageShapes)]
		q := shapeQuery(sh.head, sh.atoms, sh.preds)
		pDet := 0.0
		if iter%3 == 1 {
			pDet = 0.4
		}
		pad := 0
		if iter%4 == 2 {
			pad = 5000 // 13-bit ids
		}
		db := randomLineageDB(q, 2+rng.Intn(5), 1+rng.Intn(30), pDet, pad, rng)
		assertLineageMatchesRef(t, "random", db, q, nil)
		assertLineageMatchesRef(t, "random", db, q, SemiJoinReduceCtx(nil, db, q))
	}
	if testing.Short() {
		return
	}
	chain := NewDB()
	for ri := 1; ri <= 3; ri++ {
		r := chain.CreateRelation(fmt.Sprintf("R%d", ri), []string{"a", "b"})
		for i := 0; i < 1500; i++ {
			r.Insert([]Value{Value(rng.Intn(300)), Value(rng.Intn(300))}, rng.Float64())
		}
	}
	q := cq.MustParse("q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3), x0 <= 40")
	assertLineageMatchesRef(t, "chain3", chain, q, nil)
	assertLineageMatchesRef(t, "chain3", chain, q, SemiJoinReduceCtx(nil, chain, q))
	star := NewDB()
	r0 := star.CreateRelation("R0", []string{"a", "b", "c"})
	for i := 0; i < 2000; i++ {
		r0.Insert([]Value{Value(rng.Intn(250)), Value(rng.Intn(250)), Value(rng.Intn(250))}, rng.Float64())
	}
	for ri := 1; ri <= 3; ri++ {
		r := star.CreateRelation(fmt.Sprintf("R%d", ri), []string{"a"})
		for i := 0; i < 100; i++ {
			r.Insert([]Value{Value(rng.Intn(250))}, rng.Float64())
		}
	}
	q = cq.MustParse("q(x1) :- R0(x1, x2, x3), R1(x1), R2(x2), R3(x3)")
	assertLineageMatchesRef(t, "star3", star, q, nil)
	assertLineageMatchesRef(t, "star3", star, q, SemiJoinReduceCtx(nil, star, q))
	tpch := tpchShapeDB(200, 3000, rng)
	for _, c := range []struct {
		dollar1 int
		dollar2 string
	}{{100, "%red%"}, {200, "%"}, {50, "%red%green%"}, {0, "%"}} {
		q := tpchShapeQuery(c.dollar1, c.dollar2)
		assertLineageMatchesRef(t, "tpch", tpch, q, nil)
		assertLineageMatchesRef(t, "tpch", tpch, q, SemiJoinReduceCtx(nil, tpch, q))
	}
}

// TestLineageAtomOrderInvariance is metamorphic: permuting the atoms of
// the query text gives the same answers, and byte-identical clauses per
// answer — the canonical clause order depends on the clause set alone,
// not on the join order the atom order induces.
func TestLineageAtomOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 10*len(lineageShapes); iter++ {
		sh := lineageShapes[iter%len(lineageShapes)]
		q := shapeQuery(sh.head, sh.atoms, sh.preds)
		db := randomLineageDB(q, 2+rng.Intn(5), 1+rng.Intn(30), 0.3, 5000*(iter%2), rng)
		var reduced map[string][]int32
		if iter%2 == 1 {
			reduced = SemiJoinReduceCtx(nil, db, q)
		}
		base := EvalLineageCtx(nil, db, q, reduced)
		want := map[string][][]int32{}
		for i := 0; i < base.Len(); i++ {
			want[string(AppendKey(nil, base.Key(i)))] = base.Clauses(i)
		}
		for p := 0; p < 3; p++ {
			atoms := slices.Clone(sh.atoms)
			rng.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })
			pq := shapeQuery(sh.head, atoms, sh.preds)
			got := EvalLineageCtx(nil, db, pq, reduced)
			if got.Len() != base.Len() {
				t.Fatalf("%s: %d answers, %s gives %d", q, base.Len(), pq, got.Len())
			}
			for i := 0; i < got.Len(); i++ {
				w, ok := want[string(AppendKey(nil, got.Key(i)))]
				if !ok {
					t.Fatalf("%s: answer %v is new", pq, got.Key(i))
				}
				if !reflect.DeepEqual(got.Clauses(i), w) {
					t.Fatalf("%s: answer %v clauses\n got %v\nwant %v (%s)", pq, got.Key(i), got.Clauses(i), w, q)
				}
			}
		}
	}
}

// TestLineageIDColumnNamesAreFresh: a query built in code may name its
// variables "#0", "#1" or "##0", the way the lineage query names its id
// columns; its lineage is still the reference's, which keeps clause ids
// outside the column namespace.
func TestLineageIDColumnNamesAreFresh(t *testing.T) {
	v := func(name string) cq.Term { return cq.V(name) }
	q := &cq.Query{Name: "q", Head: []cq.Var{"x", "#1"}, Atoms: []cq.Atom{
		{Rel: "R", Args: []cq.Term{v("x"), v("#1")}},
		{Rel: "S", Args: []cq.Term{v("#1"), v("##0")}},
		{Rel: "T", Args: []cq.Term{v("##0"), v("#0")}},
	}}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	for iter := 0; iter < 20; iter++ {
		db := randomLineageDB(q, 2+rng.Intn(4), 1+rng.Intn(30), 0.3*float64(iter%2), 0, rng)
		assertLineageMatchesRef(t, "spelled", db, q, nil)
		assertLineageMatchesRef(t, "spelled", db, q, SemiJoinReduceCtx(nil, db, q))
	}
}

// orderAtomsByConnectivity reorders atoms so that each one (after the
// first) shares a variable with an earlier atom whenever possible,
// avoiding needless cross products in evalLineageRef's left-deep join.
func orderAtomsByConnectivity(atoms []cq.Atom) []cq.Atom {
	out := make([]cq.Atom, 0, len(atoms))
	used := make([]bool, len(atoms))
	out = append(out, atoms[0])
	used[0] = true
	have := cq.NewVarSet(atoms[0].Vars()...)
	for len(out) < len(atoms) {
		pick := -1
		for i, a := range atoms {
			if used[i] {
				continue
			}
			for _, v := range a.Vars() {
				if have.Has(v) {
					pick = i
					break
				}
			}
			if pick >= 0 {
				break
			}
		}
		if pick < 0 {
			for i := range atoms {
				if !used[i] {
					pick = i
					break
				}
			}
		}
		used[pick] = true
		out = append(out, atoms[pick])
		for _, v := range atoms[pick].Vars() {
			have.Add(v)
		}
	}
	return out
}
