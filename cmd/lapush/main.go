// Command lapush is the interactive front door to the library: it loads
// probabilistic relations from CSV files and answers a conjunctive query
// with the chosen method.
//
// Usage:
//
//	lapush -rel Likes=likes.csv -rel Stars=stars.csv \
//	       -q "q(user) :- Likes(user, movie), Stars(movie, actor)" \
//	       -method diss -top 10
//
// CSV format: one tuple per line, the LAST column is the probability.
// A header line is required and names the columns (the probability
// column's name is ignored). Pass -det Rel to declare a relation
// deterministic and -key "Rel=col1,col2" to declare keys.
//
// Methods: diss (default), exact, mc, kl, lineage, sql. Pass
// -explain to print the minimal plans and dissociations instead of
// evaluating.
//
// Databases can be persisted: -save db.lpd writes a snapshot after
// loading the CSVs; -load db.lpd restores one instead of loading CSVs.
// Pass -i for an interactive session: type queries at the prompt, or the
// commands ".explain <query>", ".lineage <query>", ".method <m>",
// ".quit".
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lapushdb"
	"lapushdb/internal/loader"
)

type relFlags []string

func (r *relFlags) String() string     { return strings.Join(*r, ",") }
func (r *relFlags) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	var rels, dets, keys relFlags
	flag.Var(&rels, "rel", "relation as Name=file.csv (repeatable)")
	flag.Var(&dets, "det", "declare a relation deterministic (repeatable)")
	flag.Var(&keys, "key", "declare a key as Rel=col1,col2 (repeatable)")
	query := flag.String("q", "", "conjunctive query, e.g. \"q(x) :- R(x, y), S(y)\"")
	method := flag.String("method", "diss", "diss | exact | mc | kl | lineage | sql")
	top := flag.Int("top", 0, "print only the top-k answers (0 = all)")
	samples := flag.Int("samples", 1000, "Monte Carlo samples")
	seed := flag.Int64("seed", 1, "random seed for mc")
	explain := flag.Bool("explain", false, "print plans and dissociations instead of evaluating")
	dot := flag.String("dot", "", "emit Graphviz DOT instead of evaluating: 'plans' or 'lattice'")
	saveFile := flag.String("save", "", "write a database snapshot to this file")
	loadFile := flag.String("load", "", "restore a database snapshot instead of loading CSVs")
	interactive := flag.Bool("i", false, "interactive query session on stdin")
	flag.Parse()

	if *query == "" && !*interactive && *saveFile == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Validate the method before doing any loading work, so a typo fails
	// fast with the valid set instead of after minutes of CSV ingestion.
	if _, err := lapushdb.MethodFromString(*method); err != nil {
		fail("%v", err)
	}

	db, err := loader.Build(*loadFile, rels, dets, keys)
	if err != nil {
		fail("%v", err)
	}
	if *saveFile != "" {
		if err := loader.SaveSnapshotFile(db, *saveFile); err != nil {
			fail("save snapshot: %v", err)
		}
		fmt.Fprintf(os.Stderr, "saved snapshot to %s\n", *saveFile)
		if *query == "" && !*interactive {
			return
		}
	}

	if *interactive {
		repl(db, *method, *samples, *seed, *top, os.Stdin, os.Stdout)
		return
	}
	ctx := context.Background()

	if *dot != "" {
		out, err := db.PlanDOT(*query, *dot)
		if err != nil {
			fail("%v", err)
		}
		fmt.Print(out)
		return
	}

	if *explain {
		ex, err := db.ExplainContext(ctx, *query)
		if err != nil {
			fail("%v", err)
		}
		printExplanation(os.Stdout, ex)
		return
	}

	opts, err := methodOptions(*method, *samples, *seed)
	if err != nil {
		fail("%v", err)
	}
	answers, err := db.RankContext(ctx, *query, opts)
	if err != nil {
		fail("%v", err)
	}
	printAnswersTo(os.Stdout, answers, *top)
}

func methodOptions(method string, samples int, seed int64) (*lapushdb.Options, error) {
	m, err := lapushdb.MethodFromString(method)
	if err != nil {
		return nil, err
	}
	return &lapushdb.Options{Method: m, MCSamples: samples, Seed: seed}, nil
}

func printAnswersTo(w io.Writer, answers []lapushdb.Answer, top int) {
	n := len(answers)
	if top > 0 && top < n {
		n = top
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%2d. %-40s %.6f\n", i+1, strings.Join(answers[i].Values, ", "), answers[i].Score)
	}
}

func printExplanation(w io.Writer, ex *lapushdb.Explanation) {
	fmt.Fprintf(w, "safe: %v\n", ex.Safe)
	for i, p := range ex.Plans {
		fmt.Fprintf(w, "plan %d: %s\n   dissociation: %s\n", i+1, p, ex.Dissociations[i])
	}
	fmt.Fprintf(w, "merged plan (Opt1): %s\n", ex.SinglePlan)
}

// repl reads queries and dot-commands from in until EOF or .quit.
func repl(db *lapushdb.DB, method string, samples int, seed int64, top int, in io.Reader, out io.Writer) {
	ctx := context.Background()
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprintln(os.Stderr, "lapush interactive — enter a query, or .explain/.lineage/.profile/.method/.quit")
	prompt := func() { fmt.Fprint(os.Stderr, "> ") }
	prompt()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == ".quit" || line == ".exit":
			return
		case strings.HasPrefix(line, ".method"):
			m := strings.TrimSpace(strings.TrimPrefix(line, ".method"))
			if _, err := methodOptions(m, samples, seed); err != nil {
				fmt.Fprintln(out, err)
			} else {
				method = m
				fmt.Fprintln(out, "method:", method)
			}
		case strings.HasPrefix(line, ".explain"):
			q := strings.TrimSpace(strings.TrimPrefix(line, ".explain"))
			ex, err := db.ExplainContext(ctx, q)
			if err != nil {
				fmt.Fprintln(out, err)
				break
			}
			printExplanation(out, ex)
		case strings.HasPrefix(line, ".influence"):
			q := strings.TrimSpace(strings.TrimPrefix(line, ".influence"))
			infos, err := db.Influence(ctx, q, 3)
			if err != nil {
				fmt.Fprintln(out, err)
				break
			}
			for _, ai := range infos {
				fmt.Fprintf(out, "%s  P=%.6f\n", strings.Join(ai.Values, ", "), ai.Probability)
				for _, ti := range ai.Tuples {
					fmt.Fprintf(out, "    %-40s ∂P/∂p = %.6f\n", ti.Tuple, ti.Influence)
				}
			}
		case strings.HasPrefix(line, ".profile"):
			q := strings.TrimSpace(strings.TrimPrefix(line, ".profile"))
			prof, err := db.Profile(ctx, q)
			if err != nil {
				fmt.Fprintln(out, err)
				break
			}
			fmt.Fprint(out, prof)
		case strings.HasPrefix(line, ".lineage"):
			q := strings.TrimSpace(strings.TrimPrefix(line, ".lineage"))
			infos, err := db.LineageContext(ctx, q)
			if err != nil {
				fmt.Fprintln(out, err)
				break
			}
			for _, info := range infos {
				fmt.Fprintf(out, "%s  (|lin| = %d, read-once: %v)\n  %s\n",
					strings.Join(info.Values, ", "), info.Size, info.ReadOnce, info.Formula)
				if info.ReadOnce {
					fmt.Fprintf(out, "  = %s\n", info.Factorization)
				}
			}
		case strings.HasPrefix(line, "."):
			fmt.Fprintln(out, "commands: .explain <q>, .lineage <q>, .profile <q>, .influence <q>, .method <m>, .quit")
		default:
			opts, err := methodOptions(method, samples, seed)
			if err != nil {
				fmt.Fprintln(out, err)
				break
			}
			answers, err := db.RankContext(ctx, line, opts)
			if err != nil {
				fmt.Fprintln(out, err)
				break
			}
			printAnswersTo(out, answers, top)
		}
		prompt()
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
