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

// profiledNode is what the profile must say about one node: which node,
// where, and how it was served.
type profiledNode struct {
	key      string
	depth    int
	cacheHit bool
	fused    bool
}

// nodesThatRun states the hook's contract without evaluating anything:
// with the Opt2 cache on, Eval visits a plan post-order, serves a
// repeated subplan from the cache without descending, and runs a
// Project over an uncached k>=2 Join as one fused π(⋈) whose Join gets
// no visit of its own.
func nodesThatRun(root plan.Node) []profiledNode {
	var out []profiledNode
	seen := map[string]bool{}
	var walk func(n plan.Node, depth int)
	walk = func(n plan.Node, depth int) {
		if seen[n.Key()] {
			out = append(out, profiledNode{key: n.Key(), depth: depth, cacheHit: true})
			return
		}
		children, fused := n.Children(), false
		if pr, ok := n.(*plan.Project); ok {
			if jn, ok := pr.Child.(*plan.Join); ok && len(jn.Subs) >= 2 && !seen[jn.Key()] {
				children, fused = jn.Subs, true
			}
		}
		for _, c := range children {
			walk(c, depth+1)
		}
		seen[n.Key()] = true
		out = append(out, profiledNode{key: n.Key(), depth: depth, fused: fused})
	}
	walk(root, 0)
	return out
}

// TestEvalProfiled pins the profiling hook on the one Eval: the profiled
// result is bit-identical to plain Eval, there is exactly one NodeStat
// per node that ran (cache hits and fused π(⋈) marked, and rendered so
// by FormatProfile, a scan with its predicates), each with the node's
// own output cardinality. A reused subplan is named as plan.String names
// it: "vN = …" on the line that computed it, "vN" on a cache hit. That
// the hook costs nothing when off is TestChainJoinAllocGate's ceiling.
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
		want := nodesThatRun(sp)
		label := sh.label
		opts := engine.Options{ReuseSubplans: true, SemiJoin: true}
		plain := engine.NewEvaluatorCtx(nil, sh.db, sh.q, opts)
		res, stats := engine.NewEvaluatorCtx(nil, sh.db, sh.q, opts).EvalProfiled(sp)
		ref := plain.Eval(sp)
		if res.Len() != ref.Len() || res.Len() == 0 {
			t.Fatalf("%s: profiled %d rows vs plain %d", label, res.Len(), ref.Len())
		}
		for i := 0; i < ref.Len(); i++ {
			if fmt.Sprint(res.Row(i)) != fmt.Sprint(ref.Row(i)) ||
				math.Float64bits(res.Score(i)) != math.Float64bits(ref.Score(i)) {
				t.Fatalf("%s: row %d profiled %v %v vs plain %v %v", label, i, res.Row(i), res.Score(i), ref.Row(i), ref.Score(i))
			}
		}
		if len(stats) != len(want) {
			t.Fatalf("%s: %d stats, want %d:\n%s", label, len(stats), len(want), engine.FormatProfile(stats))
		}
		hits, fused := 0, 0
		for i, s := range stats {
			if s.CacheHit {
				hits++
			}
			if s.Fused {
				fused++
			}
			got := profiledNode{s.Node.Key(), s.Depth, s.CacheHit, s.Fused}
			if got != want[i] {
				t.Errorf("%s: stat %d = %+v, want %+v", label, i, got, want[i])
			}
			// plain has cached every node that ran, so this is a lookup.
			if n := plain.Eval(s.Node).Len(); s.Rows != n {
				t.Errorf("%s: stat %d (%s) rows %d, node's result has %d", label, i, plan.String(s.Node), s.Rows, n)
			}
		}
		out := engine.FormatProfile(stats)
		if fused == 0 || hits == 0 {
			t.Errorf("%s: want fused projections and cache hits in the merged plan:\n%s", label, out)
		}
		if strings.Count(out, "\n") != len(stats) || strings.Count(out, "-way, fused") != fused ||
			strings.Count(out, "(cached)") != hits || !strings.Contains(out, "scan ") {
			t.Errorf("%s: profile does not render %d nodes, %d fused, %d cached:\n%s", label, len(stats), fused, hits, out)
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
			line := strings.TrimSpace(lines[len(stats)-1-i])
			if s.CacheHit && !(strings.HasPrefix(line, name+" ") && strings.HasSuffix(line, "(cached)")) {
				t.Errorf("%s: cache hit on %s renders %q", label, name, line)
			}
			if !s.CacheHit && (!strings.HasPrefix(line, name+" = ") ||
				!strings.Contains(explain, name+" = "+plan.Label(s.Node))) {
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
