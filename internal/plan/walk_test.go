package plan_test

import (
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/plan"
	"lapushdb/internal/workload"
)

// TestWalkersVisitDistinctNodes: the merged plan of the 10-chain unfolds
// to a tree of 34 991 nodes but has 376 distinct ones, and every walker,
// String included, visits at most those. Relations computes each node's
// relations once, from its children's, and the node keeps them: DeltaOf,
// which reads them, adds only its own walk.
func TestWalkersVisitDistinctNodes(t *testing.T) {
	q := workload.ChainQuery(10)
	sp := core.SinglePlan(q, nil)
	distinct := map[plan.ID]bool{}
	var collect func(plan.Node)
	collect = func(n plan.Node) {
		if !distinct[n.ID()] {
			distinct[n.ID()] = true
			for _, c := range n.Children() {
				collect(c)
			}
		}
	}
	collect(sp)
	if tree := plan.TreeSize(sp); tree <= len(distinct) {
		t.Fatalf("tree size %d, %d distinct nodes: the plan shares nothing", tree, len(distinct))
	}

	visits := 0
	plan.SetVisitHook(func(plan.Node) { visits++ })
	defer plan.SetVisitHook(nil)
	for _, w := range []struct {
		name string
		run  func()
	}{
		{"Relations", func() { plan.Relations(sp) }},
		{"Atoms", func() { plan.Atoms(sp) }},
		{"Distinct", func() { plan.Distinct(sp) }},
		{"IsSafe", func() { plan.IsSafe(sp, q.HeadSet()) }},
		{"String", func() { plan.String(sp) }},
		{"DeltaOf", func() { plan.DeltaOf(q, sp) }},
	} {
		visits = 0
		w.run()
		t.Logf("%s: %d visits", w.name, visits)
		if visits > len(distinct) {
			t.Errorf("%s visited %d nodes; the plan has %d distinct ones", w.name, visits, len(distinct))
		}
	}
}
