package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"lapushdb/internal/workload"
)

// Workload names, in run order. Later issues cite them; BENCHMARK.json
// lists the same five.
const (
	wlRankCold    = "rank_cold"
	wlRankHot     = "rank_hot"
	wlAnytimeCold = "anytime_cold"
	wlMixedRW     = "mixed_rw"
	wlPaperFig5   = "paper_fig5"
)

var workloadNames = []string{wlRankCold, wlRankHot, wlAnytimeCold, wlMixedRW, wlPaperFig5}

type opKind int

const (
	opRank opKind = iota
	opAnytime
	opWrite
)

// request is one generated operation against the server: the wire bytes
// the server sees, plus the fields the harness needs to check the reply
// and to call the layers directly on the same input.
type request struct {
	Kind    opKind
	Path    string
	Body    []byte
	Query   string  // reads: the query text
	Top     int     // opRank: the answer cut-off sent (0 = all)
	Epsilon float64 // opAnytime
	Seed    int64   // opAnytime: the sampler seed sent
	Samples int     // opAnytime: the MC sample cap sent
}

// Wire shapes of the server's JSON API, kept local so the harness
// measures the wire contract and not shared Go structs.
type queryBody struct {
	Query   string   `json:"query"`
	Method  string   `json:"method"`
	Top     int      `json:"top,omitempty"`
	Samples int      `json:"samples,omitempty"`
	Seed    int64    `json:"seed,omitempty"`
	Epsilon *float64 `json:"epsilon,omitempty"`
}

type mutationBody struct {
	Op    string   `json:"op"`
	Rel   string   `json:"rel"`
	Tuple []string `json:"tuple"`
	P     *float64 `json:"p,omitempty"`
}

type ingestBody struct {
	Mutations []mutationBody `json:"mutations"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal request: %v", err))
	}
	return b
}

// mix derives a per-index RNG seed from the run seed, splitmix64 style,
// so a stream is a pure function of (seed, index): concurrent clients
// pulling indices from one atomic counter issue the same requests
// whatever the scheduling.
func mix(seed, i int64) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b38b
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func rng(seed, i int64) *rand.Rand { return rand.New(rand.NewSource(mix(seed, i))) }

// colourPatterns are the LIKE patterns of the rank_cold family: every
// colour alone ('%red%') and every adjacent ordered pair ('%red%rose%').
func colourPatterns() []string {
	c := workload.Colors
	out := make([]string, 0, 2*len(c))
	for i := range c {
		out = append(out, "%"+c[i]+"%")
	}
	for i := range c {
		out = append(out, "%"+c[i]+"%"+c[(i+1)%len(c)]+"%")
	}
	return out
}

func tpchQuery(s int, pattern string) string {
	return fmt.Sprintf("q(a) :- BenchSupplier(s, a), BenchPartsupp(s, u), BenchPart(u, n), s <= %d, n like '%s'", s, pattern)
}

const chainBody = "q(x0, x3) :- BenchR1(x0, x1), BenchR2(x1, x2), BenchR3(x2, x3)"

// chainQuery selects on the chain's two join variables, which thins the
// derivations of every answer without removing answers.
func chainQuery(x1Max, x2Min int) string {
	return fmt.Sprintf("%s, x1 <= %d, x2 >= %d", chainBody, x1Max, x2Min)
}

// anytimeQuery selects on a head variable (few answers) and on one join
// variable (short lineages), so one request refines a handful of
// intervals through every stage instead of hundreds through the first.
func anytimeQuery(x0Max, x1Max int) string {
	return fmt.Sprintf("%s, x0 <= %d, x1 <= %d", chainBody, x0Max, x1Max)
}

// coldFamily is the parameterised query family of rank_cold: the TPC-H
// query over (s <= $1) × colour pattern, and the 3-chain over
// (x1 <= a) × (x2 >= b). Member(i) enumerates it, so a test can count
// its distinct normalized forms.
type coldFamily struct {
	sc       Scale
	patterns []string
}

func newColdFamily(sc Scale) coldFamily { return coldFamily{sc: sc, patterns: colourPatterns()} }

func (f coldFamily) tpchSize() int  { return f.sc.Suppliers * len(f.patterns) }
func (f coldFamily) chainSize() int { return f.sc.ChainDomain * f.sc.ChainDomain }
func (f coldFamily) Size() int      { return f.tpchSize() + f.chainSize() }

func (f coldFamily) Member(i int) string {
	if i < f.tpchSize() {
		return tpchQuery(1+i/len(f.patterns), f.patterns[i%len(f.patterns)])
	}
	i -= f.tpchSize()
	return chainQuery(i/f.sc.ChainDomain, i%f.sc.ChainDomain)
}

// draw picks a shape by fair coin, then a member of that shape
// uniformly, so both shapes carry half the requests at every scale.
func (f coldFamily) draw(r *rand.Rand) string {
	if r.Intn(2) == 0 {
		return f.Member(r.Intn(f.tpchSize()))
	}
	return f.Member(f.tpchSize() + r.Intn(f.chainSize()))
}

const (
	hotPoolSize = 32
	zipfS       = 1.1
	// coldTop keeps rank_cold responses small, so the request is the
	// evaluation and not the encoding of its answer list; rank_hot sends
	// no top for the opposite reason.
	coldTop = 10
	// writeEvery: one mixed_rw request in eight is an ingest batch.
	writeEvery = 8
	// anytimeSamples caps the MC refinement samples per answer.
	anytimeSamples = 4096
)

var anytimeEpsilons = []float64{0.1, 0.05, 0.01}

// hotPool is rank_hot's fixed pool: the 32 chain members of the family
// with the widest x1 selection and no x2 cut, whose answer lists are the
// longest the family has. It is a function of the scale alone, so the
// cost of its most popular member does not move with the seed.
func hotPool(sc Scale) []string {
	pool := make([]string, hotPoolSize)
	for j := range pool {
		pool[j] = chainQuery(sc.ChainDomain-1-j, 0)
	}
	return pool
}

// zipfCDF is the cumulative Zipf(s) distribution over ranks 1..n.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func drawCDF(cdf []float64, u float64) int {
	for i, c := range cdf {
		if u < c {
			return i
		}
	}
	return len(cdf) - 1
}

func rankRequest(query string, top int) request {
	return request{Kind: opRank, Path: "/v1/query", Query: query, Top: top,
		Body: mustJSON(queryBody{Query: query, Method: "diss", Top: top})}
}

// stream is one server workload's request generator.
type stream func(i int64) request

// newStream builds the named server workload's stream for a seed.
// paper_fig5 has no stream: it calls the engine directly.
func newStream(name string, sc Scale, seed int64) (stream, error) {
	family := newColdFamily(sc)
	pool := hotPool(sc)
	cdf := zipfCDF(hotPoolSize, zipfS)
	hot := func(r *rand.Rand) request { return rankRequest(pool[drawCDF(cdf, r.Float64())], 0) }

	switch name {
	case wlRankCold:
		return func(i int64) request { return rankRequest(family.draw(rng(seed, i)), coldTop) }, nil
	case wlRankHot:
		return func(i int64) request { return hot(rng(seed, i)) }, nil
	case wlAnytimeCold:
		return func(i int64) request {
			r := rng(seed, i)
			eps := anytimeEpsilons[r.Intn(len(anytimeEpsilons))]
			q := anytimeQuery(sc.AnytimeX0, sc.AnytimeX1Lo+r.Intn(sc.AnytimeX1Span))
			// The sampler seed is the request index, so no two requests
			// of a run are the same request and the width-tagged result
			// cache cannot answer any of them.
			return request{Kind: opAnytime, Path: "/v1/query", Query: q, Epsilon: eps, Seed: i + 1, Samples: anytimeSamples,
				Body: mustJSON(queryBody{Query: q, Method: "diss", Epsilon: &eps, Seed: i + 1, Samples: anytimeSamples})}
		}, nil
	case wlMixedRW:
		return func(i int64) request {
			r := rng(seed, i)
			if i%writeEvery == 0 {
				return writeRequest(sc, r)
			}
			return hot(r)
		}, nil
	default:
		return nil, fmt.Errorf("workload %q has no request stream", name)
	}
}

// writeRequest is the net-zero ingest batch: insert a tuple joining the
// chain's middle relation, retune its probability, delete it again, in
// one atomic batch. The data ends where it began, but the ack is a WAL
// append, an fsync and a copy-on-write publish that rotates the version
// fingerprint and so empties both caches. The tuple's second value lies
// outside the dataset's domain, so the delete can never hit a seeded
// row; batches are applied one at a time, so two clients' tuples never
// coexist either.
func writeRequest(sc Scale, r *rand.Rand) request {
	tuple := []string{strconv.Itoa(r.Intn(sc.ChainDomain)), strconv.Itoa(sc.ChainDomain + 1)}
	p1, p2 := r.Float64()*piMax, r.Float64()*piMax
	return request{Kind: opWrite, Path: "/v1/ingest", Body: mustJSON(ingestBody{Mutations: []mutationBody{
		{Op: "insert", Rel: "BenchR2", Tuple: tuple, P: &p1},
		{Op: "set_prob", Rel: "BenchR2", Tuple: tuple, P: &p2},
		{Op: "delete", Rel: "BenchR2", Tuple: tuple},
	}})}
}
