package engine_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/engine"
	"lapushdb/internal/workload"
)

// sizedDB gives the i-th atom of q a relation of size(i) distinct rows.
// PlanCost reads only relation sizes and the plan, so the values do not
// matter.
func sizedDB(q *cq.Query, size func(i int) int) *engine.DB {
	db := engine.NewDB()
	for i, a := range q.Atoms {
		cols := make([]string, len(a.Args))
		for k := range cols {
			cols[k] = "c" + strconv.Itoa(k)
		}
		r := db.CreateRelation(a.Rel, cols)
		row := make([]engine.Value, len(cols))
		for j := 0; j < size(i); j++ {
			for k := range row {
				row[k] = engine.Value(j + k)
			}
			r.Insert(row, 0.5)
		}
	}
	return db
}

// TestPlanCostPinned pins PlanCost on every minimal plan of chains 2..8,
// stars 2..5 and the TPC-H query, over relations of unequal sizes. Each
// shape's costs, keyed by plan and sorted, hash to the digest the
// tree-recursive PlanCost gave, so no cost moved by a bit: anytime
// orders its plan rounds by them. PlanCost also returns on the 10-chain's
// merged plan, a DAG whose unfolded tree the recursion walked.
func TestPlanCostPinned(t *testing.T) {
	type shape struct {
		label  string
		db     *engine.DB
		q      *cq.Query
		plans  int
		digest uint64
	}
	var shapes []shape
	pins := map[string][2]uint64{
		"chain2": {1, 0xdd7baf761614fbb6}, "chain3": {2, 0xdb3cf47bcc644391},
		"chain4": {5, 0xc9a05170b73e767d}, "chain5": {14, 0xaf7f34e995981edd},
		"chain6": {42, 0x975e5a830e97db76}, "chain7": {132, 0xf828c7350b01a3ce},
		"chain8": {429, 0x1697490ac1fa18b2},
		"star2":  {2, 0x83ac7c60e691d46b}, "star3": {6, 0x4a767454cd138426},
		"star4": {24, 0xffe74110f4f5201d}, "star5": {120, 0xd1cce0f504874daa},
		"tpch": {2, 0x55d8d60e162e1479},
	}
	add := func(label string, db *engine.DB, q *cq.Query) {
		shapes = append(shapes, shape{label, db, q, int(pins[label][0]), pins[label][1]})
	}
	for k := 2; k <= 8; k++ {
		q := workload.ChainQuery(k)
		add(fmt.Sprintf("chain%d", k), sizedDB(q, func(i int) int { return 40 + 37*i + 11*(i%3) }), q)
	}
	for k := 2; k <= 5; k++ {
		q := workload.StarQuery(k)
		add(fmt.Sprintf("star%d", k), sizedDB(q, func(i int) int { return 30 + 23*i }), q)
	}
	tp := workload.NewTPCH(0.01, 0.5, rand.New(rand.NewSource(5)))
	add("tpch", tp.DB, tp.Query(50, "%red%"))

	for _, sh := range shapes {
		plans := core.MinimalPlans(sh.q, nil)
		lines := make([]string, len(plans))
		for i, p := range plans {
			c := engine.PlanCost(sh.db, p)
			lines[i] = p.Key() + "=" + strconv.FormatUint(math.Float64bits(c), 16)
		}
		slices.Sort(lines)
		h := fnv.New64a()
		for _, l := range lines {
			h.Write([]byte(l + "\n"))
		}
		t.Logf("%s: %d plans, digest %#x", sh.label, len(plans), h.Sum64())
		if len(plans) != sh.plans || h.Sum64() != sh.digest {
			t.Errorf("%s: %d plans with cost digest %#x, want %d and %#x", sh.label, len(plans), h.Sum64(), sh.plans, sh.digest)
		}
	}

	q := workload.ChainQuery(10)
	if c := engine.PlanCost(sizedDB(q, func(i int) int { return 100 + i }), core.SinglePlan(q, nil)); !(c > 0) || math.IsInf(c, 0) {
		t.Errorf("chain10 merged plan costs %v", c)
	}
}
