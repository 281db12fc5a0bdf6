package viz

import (
	"strings"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

func TestLatticeDOTExample17(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x), T(x, y), U(y)")
	dot := LatticeDOT(q)
	// 8 dissociation nodes.
	if got := strings.Count(dot, "label="); got < 8 {
		t.Errorf("nodes = %d, want >= 8", got)
	}
	// 5 safe dissociations filled.
	if got := strings.Count(dot, "style=filled"); got != 5 {
		t.Errorf("safe nodes = %d, want 5", got)
	}
	// 2 minimal safe ones double-peripheried.
	if got := strings.Count(dot, "peripheries=2"); got != 2 {
		t.Errorf("minimal nodes = %d, want 2", got)
	}
	if !strings.Contains(dot, "∆⊥") {
		t.Error("bottom element missing")
	}
	if !strings.HasPrefix(dot, "digraph lattice {") || !strings.HasSuffix(strings.TrimSpace(dot), "}") {
		t.Error("not a DOT digraph")
	}
}

// TestPlanDOT: MinimalPlansDOT draws one node per distinct plan node,
// labelled by plan.Label, so a scan shows its pushed-down predicates.
func TestPlanDOT(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x), T(x, y), U(y), y <= 3")
	dot := MinimalPlansDOT(q, nil)
	nodes := 0
	for _, p := range core.MinimalPlans(q, nil) {
		nodes += len(plan.Distinct(p))
	}
	if got := strings.Count(dot, "[label="); got != nodes {
		t.Errorf("%d DOT nodes, want %d, one per distinct plan node:\n%s", got, nodes, dot)
	}
	for _, want := range []string{`"T(x, y)[y <= 3]"`, `"U(y)[y <= 3]"`, "⋈", "π-", "shape=box"} {
		if !strings.Contains(dot, want) {
			t.Errorf("missing %s in plan DOT:\n%s", want, dot)
		}
	}
}

func TestMinimalPlansDOT(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x), T(x, y), U(y)")
	dot := MinimalPlansDOT(q, nil)
	if got := strings.Count(dot, "subgraph cluster_"); got != 2 {
		t.Errorf("clusters = %d, want 2 minimal plans", got)
	}
	if !strings.Contains(dot, "∆ = {") {
		t.Error("dissociation labels missing")
	}
}

func TestIncidenceMatrixExample23(t *testing.T) {
	// Figure 3b: q :- R(x), S(x, y), T^d(y) with ∆2 = {T^x}.
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	delta := mustDelta("T", "x")
	out := IncidenceMatrix(q, delta, map[string]bool{"T": true})
	if !strings.Contains(out, "T^d") {
		t.Errorf("deterministic marker missing:\n%s", out)
	}
	// T is deterministic: its dissociated x renders "o", not "*".
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	tLine := lines[3]
	if strings.Contains(tLine, "*") {
		t.Errorf("DR dissociation should render as o:\n%s", out)
	}
	// R dissociated on y (probabilistic) renders "*".
	delta2 := mustDelta("R", "y")
	out2 := IncidenceMatrix(q, delta2, map[string]bool{"T": true})
	rLine := strings.Split(strings.TrimSpace(out2), "\n")[1]
	if !strings.Contains(rLine, "*") {
		t.Errorf("probabilistic dissociation should render as *:\n%s", out2)
	}
}

func TestLatticeMatrices(t *testing.T) {
	q := cq.MustParse("q() :- R(x), S(x, y), T(y)")
	out := LatticeMatrices(q, nil)
	if got := strings.Count(out, "∆"); got != 4 {
		t.Errorf("dissociations rendered = %d, want 4", got)
	}
	if !strings.Contains(out, "(safe)") || !strings.Contains(out, "(unsafe)") {
		t.Errorf("safety labels missing:\n%s", out)
	}
}

func mustDelta(rel, v string) plan.Dissociation {
	d := plan.NewDissociation()
	d.Add(rel, cq.Var(v))
	return d
}
