package plan_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lapushdb/internal/core"
	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
	"lapushdb/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// treeString is the recursive printer String replaced: it unfolds the
// DAG into its tree, printing a shared subplan once per parent slot. It
// is the reference a plan without views must render like, byte for byte.
func treeString(n plan.Node) string {
	list := func(open string, subs []plan.Node) string {
		parts := make([]string, len(subs))
		for i, c := range subs {
			parts[i] = treeString(c)
		}
		return open + "[" + strings.Join(parts, ", ") + "]"
	}
	switch t := n.(type) {
	case *plan.Scan:
		return t.Key()
	case *plan.Project:
		away := make([]string, 0, len(t.Away()))
		for _, v := range t.Away() {
			away = append(away, string(v))
		}
		return "π-" + strings.Join(away, ",") + " " + treeString(t.Child)
	case *plan.Join:
		return list("⋈", t.Subs)
	case *plan.Min:
		return list("min", t.Subs)
	}
	panic("unknown node type")
}

// TestStringMatchesTreePrinter: no minimal plan of a k-chain (k ≤ 10)
// or k-star (k ≤ 7) holds a view, so each renders exactly as the tree
// printer renders it, and the plans an Explanation lists are unchanged.
func TestStringMatchesTreePrinter(t *testing.T) {
	var names []string
	var qs []*cq.Query
	for k := 2; k <= 10; k++ {
		names, qs = append(names, fmt.Sprintf("chain%d", k)), append(qs, workload.ChainQuery(k))
	}
	for k := 2; k <= 7; k++ {
		names, qs = append(names, fmt.Sprintf("star%d", k)), append(qs, workload.StarQuery(k))
	}
	for i, q := range qs {
		for j, p := range core.MinimalPlans(q, nil) {
			if got, want := plan.String(p), treeString(p); got != want {
				t.Fatalf("%s: minimal plan %d renders\n%s\nthe tree printer\n%s", names[i], j, got, want)
			}
		}
	}
}

// TestSinglePlanGolden pins String of the single plans of chain10 and
// star7, whose trees print in 277 KB and 449 KB: with each view named
// once, each prints in under 40 KB. Run with -update to rewrite
// testdata/single_plans.golden.
func TestSinglePlanGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct {
		name string
		q    *cq.Query
	}{{"chain10", workload.ChainQuery(10)}, {"star7", workload.StarQuery(7)}} {
		s := plan.String(core.SinglePlan(c.q, nil))
		t.Logf("%s: %d bytes", c.name, len(s))
		if len(s) > 40<<10 {
			t.Errorf("%s: single plan renders in %d bytes, want <= 40 KB", c.name, len(s))
		}
		fmt.Fprintf(&b, "%s\n%s\n", c.name, s)
	}
	golden := filepath.Join("testdata", "single_plans.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("single plans differ from %s (rerun with -update if intended):\n%s", golden, b.String())
	}
}
