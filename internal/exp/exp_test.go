package exp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestFig2MatchesPaper(t *testing.T) {
	tab := Fig2(4, 5)
	want := map[string][2]string{
		"star 1":  {"1", "1"},
		"star 2":  {"2", "3"},
		"star 3":  {"6", "13"},
		"star 4":  {"24", "75"},
		"chain 2": {"1", "1"},
		"chain 3": {"2", "3"},
		"chain 4": {"5", "11"},
		"chain 5": {"14", "45"},
	}
	for _, row := range tab.Rows {
		key := row[0] + " " + row[1]
		w, ok := want[key]
		if !ok {
			t.Fatalf("unexpected row %v", row)
		}
		if row[2] != w[0] || row[3] != w[1] {
			t.Errorf("%s: #MP=%s #P=%s, want %s/%s", key, row[2], row[3], w[0], w[1])
		}
	}
	if len(tab.Rows) != len(want) {
		t.Errorf("rows = %d, want %d", len(tab.Rows), len(want))
	}
	if !strings.Contains(tab.String(), "Figure 2") {
		t.Error("rendering misses the figure id")
	}
}

func TestChainDomainKeepsCardinalitySane(t *testing.T) {
	// The calibrated domain should keep 4-chain answers in a loose band
	// around the paper's 20–50.
	for _, n := range []int{1000, 10000} {
		N := ChainDomain(4, n)
		if N <= n {
			t.Errorf("n=%d: N=%d should exceed n for sparse joins", n, N)
		}
	}
}

func TestFig5aQuick(t *testing.T) {
	tab := Fig5a(QuickConfig())
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	if len(tab.Header) != 6 {
		t.Errorf("header = %v", tab.Header)
	}
}

func TestFig5dQuick(t *testing.T) {
	cfg := QuickConfig()
	tab := Fig5d(cfg)
	if len(tab.Rows) != 7 { // k = 2..8
		t.Fatalf("rows = %d, want 7", len(tab.Rows))
	}
	// #MP column follows the Catalan numbers.
	wantMP := []string{"1", "2", "5", "14", "42", "132", "429"}
	for i, row := range tab.Rows {
		if row[1] != wantMP[i] {
			t.Errorf("k=%s: #MP = %s, want %s", row[0], row[1], wantMP[i])
		}
	}
}

func TestFig5eQuick(t *testing.T) {
	tab := Fig5e(QuickConfig())
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 ($1 sweep)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for i, cell := range row {
			if cell == "" {
				t.Errorf("empty cell %d in %v", i, row)
			}
		}
	}
}

func TestFig5iQuick(t *testing.T) {
	tab := Fig5i(QuickConfig())
	// Series: Diss, lineage, 7 MC counts, random baseline.
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(tab.Rows))
	}
	if tab.Rows[9][0] != "Random baseline" {
		t.Errorf("last row = %v", tab.Rows[9])
	}
}

func TestFanoutDBShape(t *testing.T) {
	cfg := QuickConfig()
	_ = cfg
	rngSeed := int64(9)
	tp := FanoutDB(4, 3, 8, 0.5, rand.New(rand.NewSource(rngSeed)))
	nSupp := tp.DB.Relation("Supplier").Len()
	if nSupp < 25 || nSupp > 7*25 {
		t.Errorf("suppliers = %d, want between 25 and 175", nSupp)
	}
	if tp.DB.Relation("Partsupp").Len() != nSupp*3 {
		t.Errorf("partsupp = %d, want %d", tp.DB.Relation("Partsupp").Len(), nSupp*3)
	}
	if tp.DB.Relation("Part").Len() != 8*25 {
		t.Errorf("parts = %d", tp.DB.Relation("Part").Len())
	}
	q := tp.Query(tp.Suppliers, "%")
	run := newRankingRun(tp.DB, q, 5_000_000)
	if run == nil {
		t.Fatal("exact inference should be feasible on the fanout DB")
	}
	if len(run.keys) != 25 {
		t.Errorf("answers = %d, want 25 nations", len(run.keys))
	}
	// Dissociation upper-bounds ground truth on every answer.
	for i := range run.gt {
		if run.diss[i] < run.gt[i]-1e-9 {
			t.Errorf("answer %d: diss %v < gt %v", i, run.diss[i], run.gt[i])
		}
	}
	// Dissociation ranks essentially perfectly on small instances.
	if ap := run.apDiss(); ap < 0.8 {
		t.Errorf("dissociation AP = %v, expected high", ap)
	}
}

func TestScaledScoresShrink(t *testing.T) {
	tp := FanoutDB(3, 2, 6, 0.8, rand.New(rand.NewSource(3)))
	q := tp.Query(tp.Suppliers, "%")
	run := newRankingRun(tp.DB, q, 5_000_000)
	if run == nil {
		t.Fatal("exact infeasible")
	}
	scaled := scaledGTScores(tp.DB, q, run.keys, 0.1, 5_000_000)
	for i := range scaled {
		if scaled[i] > run.gt[i]+1e-12 {
			t.Errorf("scaled GT %v above original %v", scaled[i], run.gt[i])
		}
	}
	// Scaled dissociation approaches the scaled GT (Prop 21): relative
	// error small at f = 0.01.
	sdiss := scaledDissScores(tp.DB, q, run.keys, 0.01)
	sgt := scaledGTScores(tp.DB, q, run.keys, 0.01, 5_000_000)
	for i := range sdiss {
		if sgt[i] == 0 {
			continue
		}
		if rel := (sdiss[i] - sgt[i]) / sgt[i]; rel > 0.05 || rel < -1e-9 {
			t.Errorf("answer %d: relative error %v at f=0.01", i, rel)
		}
	}
}

func TestFig5bQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickConfig()
	cfg.MaxN = 300
	tab := Fig5b(cfg)
	if len(tab.Rows) != 2 { // n = 100, 300 capped -> only 100
		if len(tab.Rows) == 0 {
			t.Fatal("no rows")
		}
	}
}

func TestFig5cQuick(t *testing.T) {
	tab := Fig5c(QuickConfig())
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	if tab.Header[0] != "n" {
		t.Errorf("header = %v", tab.Header)
	}
}

func TestFig5fgQuick(t *testing.T) {
	for _, f := range []func(Config) *Table{Fig5f, Fig5g} {
		tab := f(QuickConfig())
		if len(tab.Rows) != 5 {
			t.Fatalf("%s: rows = %d", tab.ID, len(tab.Rows))
		}
	}
}

func TestFig5hQuick(t *testing.T) {
	tab := Fig5h(QuickConfig())
	if len(tab.Rows) != 15 { // 3 patterns x 5 sweep points
		t.Fatalf("rows = %d, want 15", len(tab.Rows))
	}
	// Rows are sorted by max lineage size.
	prev := -1
	for _, row := range tab.Rows {
		var v int
		if _, err := fmt.Sscanf(row[0], "%d", &v); err != nil {
			t.Fatalf("bad max[lin] cell %q", row[0])
		}
		if v < prev {
			t.Error("rows not sorted by max lineage size")
		}
		prev = v
	}
}

func TestFig5jQuick(t *testing.T) {
	tab := Fig5j(QuickConfig())
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 buckets", len(tab.Rows))
	}
}

func TestFig5kQuick(t *testing.T) {
	tab := Fig5k(QuickConfig())
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
}

func TestFig5lQuick(t *testing.T) {
	cfg := QuickConfig()
	tab := Fig5l(cfg)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 (avg[d] = 1..5)", len(tab.Rows))
	}
	// avg[d] = 1 means no effective dissociation: MAP should be ~1 at
	// every probability level.
	for col := 1; col <= 3; col++ {
		var v float64
		if _, err := fmt.Sscanf(tab.Rows[0][col], "%g", &v); err != nil {
			t.Fatalf("bad cell %q", tab.Rows[0][col])
		}
		if v < 0.95 {
			t.Errorf("avg[d]=1 column %d: MAP = %v, want ~1", col, v)
		}
	}
}

func TestFig5mQuick(t *testing.T) {
	tab := Fig5m(QuickConfig())
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// At avg[d] = 1 dissociation is exact: it must win every column.
	for col := 1; col <= 3; col++ {
		if tab.Rows[0][col] != "Diss" {
			t.Errorf("avg[d]=1 col %d: winner = %s, want Diss", col, tab.Rows[0][col])
		}
	}
}

func TestFig5nQuick(t *testing.T) {
	tab := Fig5n(QuickConfig())
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 scale factors", len(tab.Rows))
	}
	// f = 1 is the identity: MAP = 1 in every column.
	for col := 1; col <= 3; col++ {
		if tab.Rows[0][col] != "1" {
			t.Errorf("f=1 col %d = %s, want 1", col, tab.Rows[0][col])
		}
	}
}

func TestFig5oQuick(t *testing.T) {
	tab := Fig5o(QuickConfig())
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	if tab.Rows[0][1] != "0.22" {
		t.Errorf("random baseline = %s", tab.Rows[0][1])
	}
	if tab.Rows[3][1] != "1" {
		t.Errorf("GT row = %s, want 1", tab.Rows[3][1])
	}
	// Ordering: random <= lineage <= weights <= exact.
	var vals [4]float64
	for i := range vals {
		fmt.Sscanf(tab.Rows[i][1], "%g", &vals[i])
	}
	for i := 1; i < 4; i++ {
		if vals[i] < vals[i-1]-0.05 {
			t.Errorf("decomposition not increasing: %v", vals)
		}
	}
}

func TestFig5pQuick(t *testing.T) {
	tab := Fig5p(QuickConfig())
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// As f -> 0, ScaledDiss-vs-ScaledGT approaches 1 (Prop 21).
	var last float64
	fmt.Sscanf(tab.Rows[5][1], "%g", &last)
	if last < 0.95 {
		t.Errorf("ScaledDiss vs ScaledGT at f=0.01 = %v, want ~1", last)
	}
}

func TestExtraAblationQuick(t *testing.T) {
	tab := ExtraAblation(QuickConfig())
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 workloads", len(tab.Rows))
	}
	if len(tab.Header) != 6 {
		t.Errorf("header = %v", tab.Header)
	}
}

func TestExtraCorrelationQuick(t *testing.T) {
	tab := ExtraCorrelation(QuickConfig())
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 methods", len(tab.Rows))
	}
	// Dissociation should correlate best with ground truth.
	var dissTau, linTau float64
	fmt.Sscanf(tab.Rows[0][2], "%g", &dissTau)
	fmt.Sscanf(tab.Rows[2][2], "%g", &linTau)
	if dissTau < linTau {
		t.Errorf("dissociation τ (%v) below lineage τ (%v)", dissTau, linTau)
	}
}

func TestExtraExactMethodsQuick(t *testing.T) {
	cfg := QuickConfig()
	tab := ExtraExactMethods(cfg)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 patterns", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[2] == "" {
			t.Errorf("empty DPLL cell in %v", row)
		}
	}
}
