package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"lapushdb"
	"lapushdb/internal/cq"
	"lapushdb/internal/engine"
	"lapushdb/internal/exp"
	"lapushdb/internal/workload"
)

// Scale sizes what a run builds and how much its counted phases do. The
// suite is defined at fullScale and nothing else is selectable; the
// fields exist so the package's tests can run every phase in seconds.
type Scale struct {
	// Served dataset: TPC-H shape (Partsupp holds 4 tuples per part) and
	// the 3-chain BenchR1(x0, x1), BenchR2(x1, x2), BenchR3(x2, x3). The
	// join variables x1, x2 range over [0, ChainDomain) and the head
	// variables x0, x3 over the much smaller [0, ChainEnds): at most
	// ChainEnds² answers, each with many derivations, so evaluating an
	// answer list is expensive relative to encoding it.
	Suppliers, Parts               int
	ChainN, ChainDomain, ChainEnds int
	// anytime_cold selects x0 <= AnytimeX0 and x1 <= a constant drawn from
	// [AnytimeX1Lo, AnytimeX1Lo+AnytimeX1Span): the first fixes the answer
	// count, the second bounds the clauses per answer lineage that the MC
	// and exact stages walk. The ranges are narrow on purpose: a request's
	// cost spans two orders of magnitude across epsilon alone, and a wide
	// parameter range on top of that leaves the median between clusters,
	// where it moves with the seed.
	AnytimeX0, AnytimeX1Lo, AnytimeX1Span int
	// Fig5Div divides the Fig. 5 cell sizes bench_test.go uses (5a n=1000,
	// 5b/5d n=300, 5c n=3000, TPC-H scale 0.02); 1 in the suite.
	Fig5Div int

	// Requests of the check phase and of the traced replay, repetitions
	// per layer probe.
	CheckRequests, TraceRequests, ProbeReps int
	// Assertions about a run's shape that only hold at the suite's size:
	// the least timed operations a window must complete, and the least
	// share of rank_cold's traced request the engine calls must explain.
	MinOps         int
	MinEngineShare float64
}

var fullScale = Scale{
	Suppliers: 400, Parts: 30000,
	ChainN: 6000, ChainDomain: 600, ChainEnds: 20,
	AnytimeX0: 1, AnytimeX1Lo: 4, AnytimeX1Span: 4,
	Fig5Div:       1,
	CheckRequests: 32, TraceRequests: 200, ProbeReps: 15,
	MinOps: 250, MinEngineShare: 0.80,
}

// hotMinAnswers is the answer-list length every rank_hot pool member must
// reach (asserted by the check phase): half the answers the chain can have.
func (sc Scale) hotMinAnswers() int { return sc.ChainEnds * sc.ChainEnds / 2 }

// datasetSeed fixes the served data and the Fig. 5 cells. The suite's
// data is part of its definition (bench_test.go generates the Fig. 5
// cells from the same constant); --seed draws the request streams over
// it, so two seeds differ in what is asked, not in what is stored.
const datasetSeed = 1

const piMax = 0.5

// buildDataset generates the served dataset: the TPC-H shape the paper's
// Setup 1 ranks nations over, and a 3-chain whose two minimal plans make
// every rank an unsafe dissociation. It is the only generator: the
// server is seeded from the returned DB and the probes' engine.DB is
// decoded from its snapshot bytes (engineDB), so both see the same rows
// in the same order.
func buildDataset(sc Scale) (*lapushdb.DB, error) {
	r := rand.New(rand.NewSource(datasetSeed))
	db := lapushdb.Open()
	rel := func(name string, cols ...string) (*lapushdb.Relation, error) { return db.CreateRelation(name, cols...) }

	sup, err := rel("BenchSupplier", "s", "a")
	if err != nil {
		return nil, err
	}
	ps, err := rel("BenchPartsupp", "s", "u")
	if err != nil {
		return nil, err
	}
	part, err := rel("BenchPart", "u", "n")
	if err != nil {
		return nil, err
	}
	for s := 1; s <= sc.Suppliers; s++ {
		if err := sup.Insert(r.Float64()*piMax, s, fmt.Sprintf("nation%02d", r.Intn(workload.Nations))); err != nil {
			return nil, err
		}
	}
	words := make([]string, 5)
	for u := 1; u <= sc.Parts; u++ {
		for i := range words {
			words[i] = workload.Colors[r.Intn(len(workload.Colors))]
		}
		if err := part.Insert(r.Float64()*piMax, u, strings.Join(words, " ")); err != nil {
			return nil, err
		}
		for i := 0; i < 4; i++ {
			s := 1 + (u+i*(sc.Suppliers/4+1))%sc.Suppliers
			if err := ps.Insert(r.Float64()*piMax, s, u); err != nil {
				return nil, err
			}
		}
	}
	for i := 1; i <= 3; i++ {
		cr, err := rel(fmt.Sprintf("BenchR%d", i), fmt.Sprintf("x%d", i-1), fmt.Sprintf("x%d", i))
		if err != nil {
			return nil, err
		}
		for t := 0; t < sc.ChainN; t++ {
			lo, hi := sc.ChainDomain, sc.ChainDomain
			if i == 1 {
				lo = sc.ChainEnds
			}
			if i == 3 {
				hi = sc.ChainEnds
			}
			if err := cr.Insert(r.Float64()*piMax, r.Intn(lo), r.Intn(hi)); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// snapshotBytes is the database's persisted form; equal bytes mean equal
// rows, probabilities and dictionaries, which is the parity the harness
// asserts between the served version and the probes' copy.
func snapshotBytes(db *lapushdb.DB) ([]byte, error) {
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		return nil, fmt.Errorf("snapshot dataset: %w", err)
	}
	return buf.Bytes(), nil
}

// engineDB decodes a snapshot into the engine-level database the layer
// probes call into directly.
func engineDB(snapshot []byte) (*engine.DB, error) {
	db, err := engine.Load(bytes.NewReader(snapshot))
	if err != nil {
		return nil, fmt.Errorf("decode dataset snapshot: %w", err)
	}
	return db, nil
}

// fig5Cell is one (database, query) cell of the paper's Figure 5.
type fig5Cell struct {
	Name string
	DB   *engine.DB
	Q    *cq.Query
}

// fig5 is paper_fig5's set-up: the cells it passes over, with the
// generators and sizes bench_test.go uses: 5a (4-chain), 5b (7-chain,
// 132 minimal plans), 5c (2-star), 5d at k=8, and the TPC-H query with
// the three LIKE patterns of 5e/5f/5g.
type fig5 struct{ cells []fig5Cell }

func fig5Gen() *rand.Rand { return rand.New(rand.NewSource(datasetSeed)) }

// fig5Chain is the k-chain of Fig. 5a/5b/5d at the 5b/5d size, or at n
// tuples per relation when n is not 0.
func fig5Chain(sc Scale, k, n int) fig5Cell {
	if n == 0 {
		n = 300 / sc.Fig5Div
	}
	db, q := workload.Chain(k, n, exp.ChainDomain(k, n), piMax, fig5Gen())
	return fig5Cell{Name: fmt.Sprintf("chain%d", k), DB: db, Q: q}
}

func buildFig5(sc Scale) *fig5 {
	a := fig5Chain(sc, 4, 1000/sc.Fig5Div)
	a.Name = "5a"
	b := fig5Chain(sc, 7, 0)
	b.Name = "5b"
	starN := 3000 / sc.Fig5Div
	sdb, sq := workload.Star(2, starN, exp.StarDomain(2, starN), piMax, fig5Gen())
	d := fig5Chain(sc, 8, 0)
	d.Name = "5d"
	cells := []fig5Cell{a, b, {Name: "5c", DB: sdb, Q: sq}, d}
	tp := workload.NewTPCH(0.02/float64(sc.Fig5Div), piMax, fig5Gen())
	for _, c := range []struct{ name, pattern string }{{"5e", "%red%green%"}, {"5f", "%red%"}, {"5g", "%"}} {
		cells = append(cells, fig5Cell{Name: c.name, DB: tp.DB, Q: tp.Query(tp.Suppliers/2, c.pattern)})
	}
	return &fig5{cells: cells}
}
