package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"lapushdb/internal/store"
	"lapushdb/internal/workload"
)

// Request is one HTTP request of a workload stream: everything the
// runner needs to issue it, and nothing runtime-dependent, so a stream
// is a pure function of (config, index) and two generations with the
// same seed are byte-identical.
type Request struct {
	Method string
	Path   string
	Body   []byte
	// TolerateConflict marks setup requests that may fail with 400
	// against a server that already holds the bench relations (re-runs
	// against the same durable store). The runner downgrades such
	// failures to a warning instead of aborting.
	TolerateConflict bool
	// Target selects which server of a primary+replica deployment the
	// request goes to: "" means the primary (RunConfig.BaseURL),
	// TargetReplica means RunConfig.ReplicaURL. A runner with no
	// replica configured sends everything to the primary, so replica
	// mixes still run (as a pure primary workload) in single-node
	// setups.
	Target string
}

// TargetReplica routes a Request to RunConfig.ReplicaURL.
const TargetReplica = "replica"

// Workload is one named request mix. Setup is issued sequentially
// before the timed run (shared across mixes — see SetupRequests);
// Next(i) is the i-th request of the infinite workload stream,
// deterministic in i alone so concurrent workers can pull indices from
// an atomic counter without losing reproducibility.
type Workload struct {
	Name string
	Next func(i int64) Request
}

// Config sizes the generated dataset and seeds every stream. The zero
// value selects smoke-test-sized defaults: large enough that chain
// dissociation, TPC-H LIKE scans, and the Boolean star lineage all do
// real work, small enough that `make bench-smoke` finishes in seconds.
type Config struct {
	Seed int64
	// ChainN tuples per chain relation, values drawn from [0, ChainDomain).
	ChainN, ChainDomain int
	// StarN tuples per star relation, values drawn from [0, StarDomain).
	StarN, StarDomain int
	// Suppliers and Parts size the TPC-H shape (Partsupp gets 2 tuples
	// per part).
	Suppliers, Parts int
	// PiMax bounds tuple probabilities (uniform in [0, PiMax]).
	PiMax float64
	// IngestBatch is the number of mutations per setup ingest request.
	IngestBatch int
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.ChainN <= 0 {
		c.ChainN = 300
	}
	if c.ChainDomain <= 0 {
		c.ChainDomain = 80
	}
	if c.StarN <= 0 {
		c.StarN = 150
	}
	if c.StarDomain <= 0 {
		c.StarDomain = 40
	}
	if c.Suppliers <= 0 {
		c.Suppliers = 100
	}
	if c.Parts <= 0 {
		c.Parts = 300
	}
	if c.PiMax <= 0 {
		c.PiMax = 0.5
	}
	if c.IngestBatch <= 0 {
		c.IngestBatch = 256
	}
	return c
}

// The bench relations are namespaced so a loadgen run against a live
// server can never collide with application relations.
const (
	chainFullQuery   = "q(x0, x3) :- BenchR1(x0, x1), BenchR2(x1, x2), BenchR3(x2, x3)"
	chainPrefixQuery = "q(x0, x2) :- BenchR1(x0, x1), BenchR2(x1, x2)"
	chainSuffixQuery = "q(x1, x3) :- BenchR2(x1, x2), BenchR3(x2, x3)"
	starQuery        = "q() :- BenchS1('hub', x1), BenchS2(x2), BenchS0(x1, x2)"
)

func (c Config) tpchQuery() string {
	return fmt.Sprintf("q(a) :- BenchSupplier(s, a), BenchPartsupp(s, u), BenchPart(u, n), s <= %d, n like '%%red%%'", c.Suppliers/2)
}

// mix derives a per-index RNG seed from the config seed, splitmix64
// style, so streams are deterministic in (seed, i) and adjacent
// indices decorrelate.
func mix(seed, i int64) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b38b
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func rng(seed, i int64) *rand.Rand { return rand.New(rand.NewSource(mix(seed, i))) }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal request: %v", err))
	}
	return b
}

// Request-body shapes mirroring the server's JSON API. Kept local so
// the harness measures the wire contract, not shared Go structs.
type queryBody struct {
	Query  string `json:"query"`
	Method string `json:"method,omitempty"`
	Top    int    `json:"top,omitempty"`
}

type batchQueryBody struct {
	Query string `json:"query"`
	Top   int    `json:"top,omitempty"`
}

type batchBody struct {
	Queries []batchQueryBody `json:"queries"`
	Method  string           `json:"method,omitempty"`
}

type ingestBody struct {
	Mutations []store.Mutation `json:"mutations"`
}

func queryReq(body queryBody) Request {
	return Request{Method: "POST", Path: "/v1/query", Body: mustJSON(body)}
}

func ingestReq(muts []store.Mutation, tolerate bool) Request {
	return Request{Method: "POST", Path: "/v1/ingest", Body: mustJSON(ingestBody{Mutations: muts}), TolerateConflict: tolerate}
}

func fprob(r *rand.Rand, piMax float64) *float64 {
	p := r.Float64() * piMax
	return &p
}

// SetupRequests is the deterministic seed-data stream: create the
// bench relations, then bulk-insert the chain, star, and TPC-H shapes
// in IngestBatch-sized ingest batches. Issued once per server, before
// any workload; every workload mix queries this one dataset.
func SetupRequests(c Config) []Request {
	c = c.WithDefaults()
	r := rng(c.Seed, -1)

	creates := []store.Mutation{
		{Op: store.OpCreateRelation, Rel: "BenchR1", Cols: []string{"x0", "x1"}},
		{Op: store.OpCreateRelation, Rel: "BenchR2", Cols: []string{"x1", "x2"}},
		{Op: store.OpCreateRelation, Rel: "BenchR3", Cols: []string{"x2", "x3"}},
		{Op: store.OpCreateRelation, Rel: "BenchS1", Cols: []string{"c", "x1"}},
		{Op: store.OpCreateRelation, Rel: "BenchS2", Cols: []string{"x2"}},
		{Op: store.OpCreateRelation, Rel: "BenchS0", Cols: []string{"x1", "x2"}},
		{Op: store.OpCreateRelation, Rel: "BenchSupplier", Cols: []string{"s", "a"}},
		{Op: store.OpCreateRelation, Rel: "BenchPartsupp", Cols: []string{"s", "u"}},
		{Op: store.OpCreateRelation, Rel: "BenchPart", Cols: []string{"u", "n"}},
	}
	reqs := []Request{ingestReq(creates, true)}

	var muts []store.Mutation
	add := func(rel string, tuple []string, p float64) {
		muts = append(muts, store.Mutation{Op: store.OpInsert, Rel: rel, Tuple: tuple, P: &p})
	}
	// Chain: R1(x0, x1), R2(x1, x2), R3(x2, x3).
	for i := 1; i <= 3; i++ {
		rel := fmt.Sprintf("BenchR%d", i)
		for t := 0; t < c.ChainN; t++ {
			add(rel, []string{strconv.Itoa(r.Intn(c.ChainDomain)), strconv.Itoa(r.Intn(c.ChainDomain))}, r.Float64()*c.PiMax)
		}
	}
	// Star: S1('hub', x1), S2(x2), hub S0(x1, x2).
	for t := 0; t < c.StarN; t++ {
		add("BenchS1", []string{"hub", strconv.Itoa(r.Intn(c.StarDomain))}, r.Float64()*c.PiMax)
		add("BenchS2", []string{strconv.Itoa(r.Intn(c.StarDomain))}, r.Float64()*c.PiMax)
		add("BenchS0", []string{strconv.Itoa(r.Intn(c.StarDomain)), strconv.Itoa(r.Intn(c.StarDomain))}, r.Float64()*c.PiMax)
	}
	// TPC-H shape: Supplier(s, a), Partsupp(s, u), Part(u, n) with
	// color-word part names so the LIKE patterns hit with realistic
	// selectivities.
	for s := 1; s <= c.Suppliers; s++ {
		add("BenchSupplier", []string{strconv.Itoa(s), "a" + strconv.Itoa(r.Intn(workload.Nations))}, r.Float64()*c.PiMax)
	}
	for u := 1; u <= c.Parts; u++ {
		words := make([]string, 3)
		for i := range words {
			words[i] = workload.Colors[r.Intn(len(workload.Colors))]
		}
		add("BenchPart", []string{strconv.Itoa(u), strings.Join(words, " ")}, r.Float64()*c.PiMax)
		for i := 0; i < 2; i++ {
			s := 1 + (u+i*(c.Suppliers/2+1))%c.Suppliers
			add("BenchPartsupp", []string{strconv.Itoa(s), strconv.Itoa(u)}, r.Float64()*c.PiMax)
		}
	}
	for start := 0; start < len(muts); start += c.IngestBatch {
		end := start + c.IngestBatch
		if end > len(muts) {
			end = len(muts)
		}
		reqs = append(reqs, ingestReq(muts[start:end], false))
	}
	return reqs
}

// WorkloadNames lists the available mixes in canonical order.
func WorkloadNames() []string {
	return []string{"batch", "replica_read"}
}

// ByName builds the named workload mix over the dataset of
// SetupRequests(c).
func ByName(c Config, name string) (Workload, error) {
	c = c.WithDefaults()
	switch name {
	case "batch":
		return batchWorkload(c), nil
	case "replica_read":
		return replicaReadWorkload(c), nil
	default:
		return Workload{}, fmt.Errorf("bench: unknown workload %q (have %s)", name, strings.Join(WorkloadNames(), ", "))
	}
}

// batchWorkload issues /v1/rank_batch requests of overlapping chain
// queries plus a TPC-H member, so cross-query subplan sharing (Opt2
// across the batch) has real overlap to exploit.
func batchWorkload(c Config) Workload {
	pool := []string{chainFullQuery, chainPrefixQuery, chainSuffixQuery, c.tpchQuery()}
	return Workload{
		Name: "batch",
		Next: func(i int64) Request {
			r := rng(c.Seed, i)
			n := 3 + r.Intn(3)
			queries := make([]batchQueryBody, n)
			for j := range queries {
				queries[j] = batchQueryBody{Query: pool[r.Intn(len(pool))]}
				if r.Intn(3) == 0 {
					queries[j].Top = 10
				}
			}
			return Request{Method: "POST", Path: "/v1/rank_batch",
				Body: mustJSON(batchBody{Queries: queries, Method: "diss"})}
		},
	}
}

// replicaReadWorkload interleaves mutation batches with point ranks
// (1:3) across a replicated pair. Each batch atomically inserts a fresh
// tuple joining the chain's middle relation, retunes its probability,
// and deletes it again — net-zero data drift, but every batch publishes
// a new COW version and rotates the store fingerprint. The batches go to
// the primary while the ranks are tagged TargetReplica, so a
// primary+replica run measures replica read latency under live WAL
// shipping — each shipped batch invalidates the replica's caches
// mid-run. Replica reads may observe a slightly stale version (see
// DESIGN.md's staleness contract); they must still answer without
// errors.
func replicaReadWorkload(c Config) Workload {
	reads := []string{chainPrefixQuery, chainFullQuery, starQuery, c.tpchQuery()}
	tops := []int{0, 0, 10, 5}
	return Workload{
		Name: "replica_read",
		Next: func(i int64) Request {
			r := rng(c.Seed, i)
			if i%4 == 0 {
				tuple := []string{strconv.Itoa(r.Intn(c.ChainDomain)), "rep" + strconv.FormatInt(i, 10)}
				return ingestReq([]store.Mutation{
					{Op: store.OpInsert, Rel: "BenchR2", Tuple: tuple, P: fprob(r, c.PiMax)},
					{Op: store.OpSetProb, Rel: "BenchR2", Tuple: tuple, P: fprob(r, c.PiMax)},
					{Op: store.OpDelete, Rel: "BenchR2", Tuple: tuple},
				}, false)
			}
			req := queryReq(queryBody{
				Query:  reads[r.Intn(len(reads))],
				Method: "diss",
				Top:    tops[r.Intn(len(tops))],
			})
			req.Target = TargetReplica
			return req
		},
	}
}
