package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

// semiJoinReduceRef is the reduction semiJoinReduce replaced, kept as
// the differential reference: every ordered atom pair, every pass, until
// a pass changes nothing, with a fresh hash set per pair.
func semiJoinReduceRef(db *DB, q *cq.Query, c *canceller) map[string][]int32 {
	type atomInfo struct {
		atom cq.Atom
		rel  *Relation
		live []int32
		// varPos maps each variable to one argument position.
		varPos map[cq.Var]int
	}
	head := q.HeadSet()
	infos := make([]*atomInfo, len(q.Atoms))
	for i, a := range q.Atoms {
		rel := db.Relation(a.Rel)
		if rel == nil {
			panic(fmt.Sprintf("engine: unknown relation %s", a.Rel))
		}
		info := &atomInfo{atom: a, rel: rel, varPos: map[cq.Var]int{}}
		for j, t := range a.Args {
			if t.IsVar() {
				if _, ok := info.varPos[t.Var]; !ok {
					info.varPos[t.Var] = j
				}
			}
		}
		filter := newRowFilter(db, rel, plan.NewScan(a, q.PredsOnAtom(a)))
		sel, all := filter.apply(rel, nil, false, c, nil)
		if all {
			info.live = make([]int32, rel.Len())
			for r := range info.live {
				info.live[r] = int32(r)
			}
		} else {
			info.live = sel
		}
		infos[i] = info
	}
	// Shared existential variables between atom pairs drive the reduction.
	shared := func(a, b *atomInfo) []cq.Var {
		var out []cq.Var
		for v := range a.varPos {
			if head.Has(v) {
				continue
			}
			if _, ok := b.varPos[v]; ok {
				out = append(out, v)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for changed := true; changed; {
		changed = false
		for i, a := range infos {
			for j, b := range infos {
				if i == j {
					continue
				}
				vars := shared(a, b)
				if len(vars) == 0 {
					continue
				}
				// Hoist the variable positions out of the row loops: the
				// semi-join filter kernels below then run over the flattened
				// id storage without per-row map lookups.
				apos := make([]int, len(vars))
				bpos := make([]int, len(vars))
				for x, v := range vars {
					apos[x] = a.varPos[v]
					bpos[x] = b.varPos[v]
				}
				// Keys present in b on the shared vars.
				keys := newGroupTable(nil, len(vars), len(b.live))
				key := make([]int32, len(vars))
				for _, r := range b.live {
					c.check()
					row := b.rel.vidRow(int(r))
					for x, p := range bpos {
						key[x] = row[p]
					}
					keys.intern(key)
				}
				// Keep only a's rows whose shared-key exists in b.
				kept := a.live[:0]
				for _, r := range a.live {
					c.check()
					row := a.rel.vidRow(int(r))
					for x, p := range apos {
						key[x] = row[p]
					}
					if _, ok := keys.lookup(key); ok {
						kept = append(kept, r)
					}
				}
				if len(kept) != len(a.live) {
					a.live = kept
					changed = true
				}
			}
		}
	}
	out := map[string][]int32{}
	for _, info := range infos {
		out[info.atom.Rel] = info.live
	}
	return out
}

// tpchColors is a short TPC-H-style colour list for part names.
var tpchColors = []string{
	"almond", "azure", "black", "blue", "brown", "coral", "cream", "cyan",
	"dark", "forest", "ghost", "green", "grey", "ivory", "khaki", "lace",
	"lime", "linen", "navy", "olive", "peach", "pink", "plum", "red",
	"rose", "royal", "sienna", "sky", "snow", "steel", "tan", "white",
}

// tpchShapeDB builds the TPC-H shape of internal/workload (which imports
// this package, so its generator is out of reach here): Supplier(s, a),
// four Partsupp(s, u) per part, Part(u, n) with five-colour names.
func tpchShapeDB(nSupp, nPart int, rng *rand.Rand) *DB {
	db := NewDB()
	sup := db.CreateRelation("Supplier", []string{"s", "a"})
	ps := db.CreateRelation("Partsupp", []string{"s", "u"})
	part := db.CreateRelation("Part", []string{"u", "n"})
	for s := 1; s <= nSupp; s++ {
		sup.Insert([]Value{Value(s), Value(rng.Intn(25))}, rng.Float64())
	}
	words := make([]string, 5)
	for u := 1; u <= nPart; u++ {
		for i := range words {
			words[i] = tpchColors[rng.Intn(len(tpchColors))]
		}
		part.Insert([]Value{Value(u), db.Intern(strings.Join(words, " "))}, rng.Float64())
		for i := 0; i < 4; i++ {
			s := 1 + (u+i*(nSupp/4+1))%nSupp
			ps.Insert([]Value{Value(s), Value(u)}, rng.Float64())
		}
	}
	return db
}

func tpchShapeQuery(dollar1 int, dollar2 string) *cq.Query {
	return cq.MustParse(fmt.Sprintf(
		"Q(a) :- Supplier(s, a), Partsupp(s, u), Part(u, n), s <= %d, n like '%s'", dollar1, dollar2))
}

// tpchBench is the 151 500-row instance (the benchmark dataset's sizes)
// shared by the reference differential, the allocation gate and
// BenchmarkSemiJoinReduce.
var tpchBench = sync.OnceValue(func() *DB {
	return tpchShapeDB(1500, 30000, rand.New(rand.NewSource(7)))
})

func assertReduceMatchesRef(t *testing.T, label string, db *DB, q *cq.Query) {
	t.Helper()
	got := SemiJoinReduceCtx(nil, db, q)
	want := semiJoinReduceRef(db, q, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %s: reduction differs from the reference\n got %v\nwant %v", label, q, got, want)
	}
}

// TestPropSemiJoinReduceMatchesReference: semiJoinReduce returns exactly
// the row sets of the all-pairs fixpoint it replaced — on the large
// chain/star/TPC-H shapes, and on random instances of queries that cover
// a cyclic triangle, a composite shared key, constants (one of them
// unknown to the database), repeated variables, head variables, an
// empty relation, databases whose value-id space dwarfs the selections
// (the hash side of the bitset rule), and copy-on-write snapshots that
// extend the id space.
func TestPropSemiJoinReduceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	queries := append([]string{
		"q() :- R(x, y), S(y, z), T(z, x)",      // cyclic triangle
		"q() :- R(x, y), S(x, y)",               // composite shared key
		"q(x) :- R(x, y), S(x, y, z), T(z, y)",  // composite key minus a head variable
		"q() :- R(x, 2), S(x, y), T(y, 1)",      // constants
		"q() :- R(x, 'nowhere'), S(x, y)",       // a constant the database has never seen
		"q() :- R(x, x), S(x, y), T(y, y, z)",   // repeated variables
		"q(y) :- R(x, y), S(y, z), T(z)",        // a head variable is no semi-join key
		"q() :- R(x), S(y)",                     // no edge at all
		"q() :- R(x, y), S(y, z), T(z), z <= 2", // predicate on a shared variable
	}, propQueries...)
	for iter := 0; iter < 12*len(queries); iter++ {
		qs := queries[iter%len(queries)]
		q := cq.MustParse(qs)
		db := randomDB(q, 2+rng.Intn(6), 1+rng.Intn(40), 1.0, rng)
		switch iter % 4 {
		case 1:
			// 20 000 value ids against a few dozen live rows: every edge
			// takes the hash side.
			pad := db.CreateRelation("Pad", []string{"v"})
			for v := 0; v < 20000; v++ {
				pad.Insert([]Value{Value(1000 + v)}, 0.5)
			}
		case 2:
			db.CreateRelation("Empty", []string{"a", "b"})
			q = cq.MustParse(qs + ", Empty(" + string(q.Atoms[0].Vars()[0]) + ", e)")
		}
		assertReduceMatchesRef(t, "random", db, q)
		if iter%4 == 3 {
			// A snapshot that appends rows carrying new value ids: the
			// clone reduces over the larger id space, the parent as before.
			clone := db.CloneCOW()
			for _, a := range q.Atoms {
				tuple := make([]Value, len(a.Args))
				for k := 0; k < 5; k++ {
					for j := range tuple {
						tuple[j] = Value(100 + rng.Intn(3))
					}
					clone.Relation(a.Rel).Insert(tuple, 0.5)
				}
			}
			assertReduceMatchesRef(t, "cow clone", clone, q)
			assertReduceMatchesRef(t, "cow parent", db, q)
		}
	}
	if testing.Short() {
		return
	}
	n := 2*morselSize + 31
	chain := NewDB()
	for ri := 1; ri <= 3; ri++ {
		r := chain.CreateRelation(fmt.Sprintf("R%d", ri), []string{"a", "b"})
		for i := 0; i < n; i++ {
			r.Insert([]Value{Value(rng.Intn(3 * n)), Value(rng.Intn(3 * n))}, rng.Float64())
		}
	}
	assertReduceMatchesRef(t, "chain3", chain, cq.MustParse("q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)"))
	star := NewDB()
	r0 := star.CreateRelation("R0", []string{"a", "b", "c"})
	for i := 0; i < n; i++ {
		r0.Insert([]Value{Value(rng.Intn(250)), Value(rng.Intn(250)), Value(rng.Intn(250))}, rng.Float64())
	}
	for ri := 1; ri <= 3; ri++ {
		r := star.CreateRelation(fmt.Sprintf("R%d", ri), []string{"a"})
		for i := 0; i < 100; i++ {
			r.Insert([]Value{Value(rng.Intn(250))}, rng.Float64())
		}
	}
	assertReduceMatchesRef(t, "star3", star, cq.MustParse("q(x1) :- R0(x1, x2, x3), R1(x1), R2(x2), R3(x3)"))
	for _, c := range []struct {
		dollar1 int
		dollar2 string
	}{{750, "%red%"}, {1500, "%"}, {300, "%red%green%"}, {1, "%red%green%"}, {0, "%"}} {
		assertReduceMatchesRef(t, "tpch", tpchBench(), tpchShapeQuery(c.dollar1, c.dollar2))
	}
}

// TestSemiJoinKernelsAgree runs the bitset and the hash semi-join on the
// same single-key inputs: whichever side of the size rule an edge falls
// on, it keeps the same rows.
func TestSemiJoinKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	q := cq.MustParse("q() :- A(x, y), B(y, z)")
	for iter := 0; iter < 50; iter++ {
		db := randomDB(q, 1+rng.Intn(40), 1+rng.Intn(60), 1.0, rng)
		a, b := db.Relation("A"), db.Relation("B")
		live := func(r *Relation) []int32 {
			var out []int32
			for i := 0; i < r.Len(); i++ {
				if rng.Intn(4) > 0 {
					out = append(out, int32(i))
				}
			}
			return out
		}
		alive, blive := live(a), live(b)
		apos, bpos := rng.Intn(2), rng.Intn(2)
		bits := make([]uint64, (db.NumValues()+63)/64)
		got := semiJoinBits(a, append([]int32(nil), alive...), apos, b, blive, bpos, bits, nil)
		want := semiJoinHash(a, append([]int32(nil), alive...), []int{apos}, b, blive, []int{bpos}, nil, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: bitset kept %v, hash kept %v", iter, got, want)
		}
	}
}
