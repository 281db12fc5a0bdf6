package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lapushdb"
	"lapushdb/internal/loader"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadCSV(t *testing.T) {
	dir := t.TempDir()
	file := writeFile(t, dir, "likes.csv", "user,movie,p\nann,heat,0.9\nbob,heat,0.5\n")
	db := lapushdb.Open()
	if err := loader.LoadCSVFile(db, "Likes", file, false); err != nil {
		t.Fatal(err)
	}
	if got := db.Relation("Likes").Len(); got != 2 {
		t.Errorf("tuples = %d, want 2", got)
	}
	answers, err := db.RankContext(context.Background(), "q(user) :- Likes(user, movie)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 || answers[0].Values[0] != "ann" {
		t.Errorf("answers = %+v", answers)
	}
}

func TestLoadCSVDeterministic(t *testing.T) {
	dir := t.TempDir()
	file := writeFile(t, dir, "d.csv", "x,p\n1,1\n2,1\n")
	db := lapushdb.Open()
	if err := loader.LoadCSVFile(db, "D", file, true); err != nil {
		t.Fatal(err)
	}
	ex, err := db.ExplainContext(context.Background(), "q(x) :- D(x)")
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Safe {
		t.Error("single deterministic atom should be safe")
	}
}

func TestLoadCSVErrors(t *testing.T) {
	dir := t.TempDir()
	db := lapushdb.Open()
	cases := map[string]string{
		"missing.csv":  "", // not written: open fails
		"noheader.csv": "",
		"badprob.csv":  "x,p\n1,notanumber\n",
		"shortrow.csv": "x,y,p\n1,0.5\n",
		"badrange.csv": "x,p\n1,2.5\n",
	}
	for name, content := range cases {
		file := filepath.Join(dir, name)
		if name != "missing.csv" {
			writeFile(t, dir, name, content)
		}
		if err := loader.LoadCSVFile(db, "R_"+name[:3]+name[4:7], file, false); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestMethodOptions(t *testing.T) {
	for _, m := range []string{"diss", "exact", "mc", "lineage", "sql"} {
		if _, err := methodOptions(m, 100, 1); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
	if _, err := methodOptions("bogus", 100, 1); err == nil {
		t.Error("bogus method should fail")
	}
}

func TestREPL(t *testing.T) {
	db := lapushdb.Open()
	r, _ := db.CreateRelation("R", "x", "y")
	_ = r.Insert(0.5, 1, 2)
	_ = r.Insert(0.8, 3, 4)
	in := strings.NewReader(strings.Join([]string{
		"q(x) :- R(x, y)",
		".method exact",
		"q(x) :- R(x, y)",
		".method nonsense",
		".explain q(x) :- R(x, y)",
		".lineage q(x) :- R(x, y)",
		".help",
		"broken query",
		".quit",
	}, "\n"))
	var out strings.Builder
	repl(db, "diss", 100, 1, 0, in, &out)
	got := out.String()
	for _, want := range []string{
		"0.800000",           // ranked answer
		"method: exact",      // method switch
		"unknown method",     // bad method
		"safe: true",         // explain
		"|lin| = 1",          // lineage
		"commands: .explain", // help
		"cq: parse",          // parse error surfaced
	} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL output missing %q:\n%s", want, got)
		}
	}
}

func TestPrintAnswersTop(t *testing.T) {
	answers := []lapushdb.Answer{
		{Values: []string{"a"}, Score: 0.9},
		{Values: []string{"b"}, Score: 0.8},
		{Values: []string{"c"}, Score: 0.7},
	}
	var out strings.Builder
	printAnswersTo(&out, answers, 2)
	if strings.Count(out.String(), "\n") != 2 {
		t.Errorf("top 2 should print 2 lines:\n%s", out.String())
	}
}

func TestREPLProfile(t *testing.T) {
	db := lapushdb.Open()
	r, _ := db.CreateRelation("R", "x", "y")
	_ = r.Insert(0.5, 1, 2)
	in := strings.NewReader(".profile q(x) :- R(x, y)\n.quit\n")
	var out strings.Builder
	repl(db, "diss", 100, 1, 0, in, &out)
	if !strings.Contains(out.String(), "scan R(x, y)") {
		t.Errorf("profile output missing scan:\n%s", out.String())
	}
}

func TestREPLInfluenceAndMethods(t *testing.T) {
	db := lapushdb.Open()
	r, _ := db.CreateRelation("R", "x", "y")
	_ = r.Insert(0.5, 1, 2)
	in := strings.NewReader(strings.Join([]string{
		".influence q(x) :- R(x, y)",
		".method obdd",
		".method exact",
		"q(x) :- R(x, y)",
		".method kl",
		"q(x) :- R(x, y)",
		".quit",
	}, "\n"))
	var out strings.Builder
	repl(db, "diss", 200, 1, 0, in, &out)
	got := out.String()
	for _, want := range []string{"∂P/∂p", `unknown method "obdd"`, "method: exact", "method: kl", "0.500000"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q:\n%s", want, got)
		}
	}
}
