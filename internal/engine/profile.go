package engine

import (
	"fmt"
	"strings"
	"time"

	"lapushdb/internal/plan"
)

// NodeStat is one profiled plan-node execution: the operator, its output
// cardinality, and its inclusive wall-clock time. CacheHit marks subplan
// results served from the Opt2 cache. Fused marks a Project that ran as
// the streaming π(⋈) of stream.go: its child Join never materialized, so
// the Join has no NodeStat of its own and its inputs sit one level below
// the Project. Direct marks a fused Project that found each join row's
// group by direct address instead of by hashing (stream.go).
type NodeStat struct {
	Node      plan.Node
	Rows      int
	Inclusive time.Duration
	CacheHit  bool
	Fused     bool
	Direct    bool
	Depth     int
}

// profiler is the per-node hook Eval calls when EvalProfiled installed
// one. Every method is a no-op on a nil receiver, so the unprofiled path
// pays one nil check per node and allocates nothing.
type profiler struct {
	stats  []NodeStat
	depth  int
	fused  bool // the node being left ran as fused π(⋈)
	direct bool // and found its groups by direct address
}

func (pr *profiler) hit(n plan.Node, r *Result) {
	if pr != nil {
		pr.stats = append(pr.stats, NodeStat{Node: n, Rows: r.Len(), CacheHit: true, Depth: pr.depth})
	}
}

func (pr *profiler) enter() (start time.Time) {
	if pr != nil {
		pr.depth++
		start = time.Now()
	}
	return start
}

func (pr *profiler) markFused(direct bool) {
	if pr != nil {
		pr.fused, pr.direct = true, direct
	}
}

func (pr *profiler) leave(n plan.Node, out *Result, start time.Time) {
	if pr != nil {
		pr.depth--
		pr.stats = append(pr.stats, NodeStat{Node: n, Rows: out.Len(), Inclusive: time.Since(start), Fused: pr.fused, Direct: pr.direct, Depth: pr.depth})
		pr.fused, pr.direct = false, false
	}
}

// EvalProfiled evaluates a plan through Eval while recording one
// NodeStat per plan node that ran, in execution (post-order) order — the
// engine's EXPLAIN ANALYZE.
func (e *Evaluator) EvalProfiled(p plan.Node) (*Result, []NodeStat) {
	pr := &profiler{}
	e.prof = pr
	defer func() { e.prof = nil }() // also when a cancellation unwinds Eval
	res := e.Eval(p)
	return res, pr.stats
}

// FormatProfile renders the stats as an indented operator tree, root
// first, with output cardinalities and inclusive times. Each line names
// its node by plan.Label, so a scan shows its pushed-down predicates. A
// reused subplan carries the name plan.String gives it: the line that
// computed it starts "vN = ", and a cache hit on it prints "vN".
func FormatProfile(stats []NodeStat) string {
	if len(stats) == 0 {
		return ""
	}
	// Stats are post-order, so the root is last; print in reverse for a
	// root-first tree.
	_, names := plan.Views(stats[len(stats)-1].Node)
	var b strings.Builder
	for i := len(stats) - 1; i >= 0; i-- {
		s := stats[i]
		indent := strings.Repeat("  ", s.Depth)
		op := plan.Label(s.Node)
		switch t := s.Node.(type) {
		case *plan.Scan:
			op = "scan " + op
		case *plan.Project:
			op = "project " + op
			if s.Fused {
				mode := "fused"
				if s.Direct {
					mode = "fused, direct"
				}
				op += fmt.Sprintf(" ⋈ (%d-way, %s)", len(t.Child.(*plan.Join).Subs), mode)
			}
		case *plan.Join:
			op += fmt.Sprintf(" (%d-way)", len(t.Subs))
		case *plan.Min:
			op += fmt.Sprintf(" (%d alternatives)", len(t.Subs))
		}
		if name, ok := names[s.Node.ID()]; ok {
			if s.CacheHit {
				op = name
			} else {
				op = name + " = " + op
			}
		}
		if s.CacheHit {
			fmt.Fprintf(&b, "%s%-40s rows=%-8d (cached)\n", indent, op, s.Rows)
		} else {
			fmt.Fprintf(&b, "%s%-40s rows=%-8d %.3fms\n", indent, op, s.Rows,
				float64(s.Inclusive.Microseconds())/1000)
		}
	}
	return b.String()
}
