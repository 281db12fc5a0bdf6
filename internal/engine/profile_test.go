package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/engine"
	"lapushdb/internal/plan"
	"lapushdb/internal/workload"
)

// stepsThatRun states the program's contract without evaluating
// anything: with Opt2 on, each distinct node of the plan is one step,
// children first (plan.Distinct), except a k>=2 Join whose parents are
// all Projects, which runs fused inside each of them. It returns the
// nodes of the steps and whether each runs as a fused π(⋈).
func stepsThatRun(root plan.Node) ([]plan.Node, []bool) {
	uses := plan.Distinct(root)
	projParents := map[plan.ID]int{}
	for _, u := range uses {
		if pr, ok := u.Node.(*plan.Project); ok {
			projParents[pr.Child.ID()]++
		}
	}
	inner := func(u plan.Use) bool {
		jn, ok := u.Node.(*plan.Join)
		return ok && len(jn.Subs) >= 2 && u.Parents > 0 && projParents[jn.ID()] == u.Parents
	}
	innerIDs := map[plan.ID]bool{}
	var nodes []plan.Node
	var fused []bool
	for _, u := range uses {
		if inner(u) {
			innerIDs[u.Node.ID()] = true
			continue
		}
		pr, ok := u.Node.(*plan.Project)
		nodes = append(nodes, u.Node)
		fused = append(fused, ok && innerIDs[pr.Child.ID()])
	}
	return nodes, fused
}

// TestEvalProfiled pins the profile of one run: the profiled result is
// bit-identical to plain Eval, and there is exactly one NodeStat per
// step — the plan's distinct nodes, children first, without the joins
// that run fused (marked on their Projects, and rendered so by
// FormatProfile, a scan with its predicates) — each with the row count
// a fresh evaluation of its node gives. A view is named as plan.String
// names it: "vN = …" on the line of the step that computed it. That
// profiling costs nothing when off is TestChainJoinAllocGate's ceiling.
func TestEvalProfiled(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	type shape struct {
		label string
		db    *engine.DB
		q     *cq.Query
	}
	var shapes []shape
	db, q := workload.Chain(3, 600, 120, 0.5, rng)
	shapes = append(shapes, shape{"chain3", db, q})
	db, q = workload.Chain(4, 600, 120, 0.5, rng)
	shapes = append(shapes, shape{"chain4", db, q})
	db, q = workload.Star(3, 500, 90, 0.5, rng)
	shapes = append(shapes, shape{"star3", db, q})
	tp := workload.NewTPCH(0.01, 0.1, rng)
	shapes = append(shapes, shape{"tpch", tp.DB, tp.Query(tp.Suppliers, "%red%")})

	for _, sh := range shapes {
		sp := core.SinglePlan(sh.q, nil)
		wantNodes, wantFused := stepsThatRun(sp)
		label := sh.label
		opts := engine.Options{ReuseSubplans: true, SemiJoin: true}
		res, stats := engine.NewEvaluatorCtx(nil, sh.db, sh.q, opts).EvalProfiled(sp)
		ref := engine.NewEvaluatorCtx(nil, sh.db, sh.q, opts).Eval(sp)
		if res.Len() != ref.Len() || res.Len() == 0 {
			t.Fatalf("%s: profiled %d rows vs plain %d", label, res.Len(), ref.Len())
		}
		for i := 0; i < ref.Len(); i++ {
			if fmt.Sprint(res.Row(i)) != fmt.Sprint(ref.Row(i)) ||
				math.Float64bits(res.Score(i)) != math.Float64bits(ref.Score(i)) {
				t.Fatalf("%s: row %d profiled %v %v vs plain %v %v", label, i, res.Row(i), res.Score(i), ref.Row(i), ref.Score(i))
			}
		}
		if len(stats) != len(wantNodes) {
			t.Fatalf("%s: %d stats, want %d:\n%s", label, len(stats), len(wantNodes), engine.FormatProfile(stats))
		}
		fused := 0
		for i, s := range stats {
			if s.Fused {
				fused++
			}
			if s.Node.Key() != wantNodes[i].Key() || s.Fused != wantFused[i] {
				t.Errorf("%s: stat %d = %s fused=%v, want %s fused=%v", label, i, s.Node.Key(), s.Fused, wantNodes[i].Key(), wantFused[i])
			}
			if n := engine.NewEvaluatorCtx(nil, sh.db, sh.q, opts).Eval(s.Node).Len(); s.Rows != n {
				t.Errorf("%s: stat %d (%s) rows %d, node's result has %d", label, i, plan.String(s.Node), s.Rows, n)
			}
		}
		out := engine.FormatProfile(stats)
		if fused == 0 {
			t.Errorf("%s: want fused projections in the merged plan:\n%s", label, out)
		}
		if strings.Count(out, "\n") != len(stats) || strings.Count(out, "-way, fused") != fused || !strings.Contains(out, "scan ") {
			t.Errorf("%s: profile does not render %d steps, %d fused:\n%s", label, len(stats), fused, out)
		}
		// Each reused subplan carries its plan.String name.
		_, names := plan.Views(sp)
		explain := plan.String(sp)
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		named := 0
		for i, s := range stats {
			name, ok := names[s.Node.ID()]
			if !ok {
				continue
			}
			named++
			line := lines[len(stats)-1-i]
			if !strings.HasPrefix(line, name+" = ") || !strings.Contains(explain, name+" = "+plan.Label(s.Node)) {
				t.Errorf("%s: %s computed as %q, explained as %s", label, name, line, explain)
			}
		}
		if label == "chain4" && named == 0 {
			t.Errorf("%s: no line names a reused subplan:\n%s", label, out)
		}
		// A scan prints its whole key: tpch's Supplier and Part scans
		// carry their pushed-down predicates.
		for _, s := range stats {
			if scan, ok := s.Node.(*plan.Scan); ok && !strings.Contains(out, "scan "+scan.Key()+" ") {
				t.Errorf("%s: profile does not print scan %s:\n%s", label, scan.Key(), out)
			}
		}
	}
}
