package engine

import (
	"fmt"
	"strings"
	"time"

	"lapushdb/internal/plan"
)

// NodeStat is one step of a profiled run (program.go): the plan node it
// computed, its output cardinality, and its own wall-clock time — its
// inputs are steps of their own. Fused marks a Project that ran as the
// streaming π(⋈) of stream.go: its child Join never materialized, so
// the Join has no NodeStat of its own and the Project read the join's
// inputs. Direct marks a fused Project that found each join row's group
// by direct address instead of by hashing (stream.go).
type NodeStat struct {
	Node   plan.Node
	Rows   int
	Time   time.Duration
	Fused  bool
	Direct bool
}

// EvalProfiled evaluates a plan as Eval does, while recording one
// NodeStat per step that ran, in the order they ran (the root last) —
// the engine's EXPLAIN ANALYZE.
func (e *Evaluator) EvalProfiled(p plan.Node) (*Result, []NodeStat) {
	var stats []NodeStat
	res := e.detach(e.evalPlan(p, &stats))
	return res, stats
}

// FormatProfile renders the stats one step a line, root first, with
// each step's output cardinality and own time. Each line names its node
// by plan.Label, so a scan shows its pushed-down predicates, and a view
// carries the name plan.String gives it: its line starts "vN = ".
func FormatProfile(stats []NodeStat) string {
	if len(stats) == 0 {
		return ""
	}
	_, names := plan.Views(stats[len(stats)-1].Node)
	var b strings.Builder
	for i := len(stats) - 1; i >= 0; i-- {
		s := stats[i]
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
			op = name + " = " + op
		}
		fmt.Fprintf(&b, "%-40s rows=%-8d %.3fms\n", op, s.Rows, float64(s.Time.Microseconds())/1000)
	}
	return b.String()
}
