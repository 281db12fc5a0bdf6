// Command perfbench is the repository's benchmark (see BENCHMARK.json and
// README.md in this directory). One invocation runs one workload for one
// seed and prints, as the last line of standard output, one JSON object
// with the run's correctness and metrics:
//
//	perfbench --workload rank_cold --seed 7 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of a timed window that runs
// with harness spans off; --trace 1 makes the traced pass instead and
// reports the per-layer metrics. Two more modes wrap that one:
//
//	perfbench -suite -seed 7 -out report.json   # five workloads, then the traced pass of each
//	perfbench -compare A.json B.json            # gate B (or a set B1.json,B2.json,…) against A with BENCHMARK.json's bounds
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	workload := flag.String("workload", "", "workload to run: rank_cold, rank_hot, anytime_cold, mixed_rw or paper_fig5")
	seed := flag.Int64("seed", 1, "seed of the request streams (same seed, same requests)")
	seconds := flag.Float64("seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: timed window with spans off, end-to-end metrics; 1: traced pass, per-layer metrics")
	suite := flag.Bool("suite", false, "run all five workloads in order, then the traced pass of each, and print every metric")
	out := flag.String("out", "", "with -suite: write the report as JSON to this file")
	compare := flag.Bool("compare", false, "compare two -suite reports, or two comma-separated sets of them by their medians (arguments: A.json[,A2.json…] B.json[,…]), against the bounds in BENCHMARK.json")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two reports or comma-separated sets of reports, got %d arguments", flag.NArg())
			break
		}
		err = compareReports(os.Stdout, benchmarkFile, flag.Arg(0), flag.Arg(1))
	case *suite:
		err = runSuite(ctx, *seed, *seconds, *out)
	default:
		err = runOne(ctx, *workload, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// benchmarkFile is the benchmark's definition, at the root of the
// checkout the benchmark runs from.
const benchmarkFile = "BENCHMARK.json"

// runOne is the driver contract: one workload, progress on stderr, the
// result object as the last line of stdout. The driver reads the same
// per-layer metric list from every traced run, so the probes run every
// time and a replay metric the workload has no value for reads 0.
func runOne(ctx context.Context, workload string, seed int64, seconds float64, trace int) error {
	known := false
	for _, name := range workloadNames {
		known = known || name == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	work, err := workDir(workload, seed)
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg := runConfig{Workload: workload, Seed: seed, Seconds: seconds, Scale: fullScale, Work: work, Log: os.Stderr, Probes: trace != 0}
	res, err := run(ctx, cfg, trace != 0)
	if err != nil {
		return err
	}
	printRun(os.Stderr, res)
	fillMissing(res)
	fmt.Fprintf(os.Stdout, "%s\n", res.driverLine())
	return nil
}

// fillMissing gives a traced run's result the per-layer metrics its
// workload has no value for, as 0.
func fillMissing(res *runResult) {
	if !res.Traced {
		return
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			res.set(d.Name, 0)
		}
	}
}

// run dispatches one run and checks that it reported exactly the
// metrics its pass defines.
func run(ctx context.Context, cfg runConfig, traced bool) (*runResult, error) {
	pass := runEndToEnd
	if traced {
		pass = runTraced
	}
	res, err := pass(ctx, cfg)
	if err != nil {
		return nil, err
	}
	names := wanted(cfg, traced)
	for _, name := range names {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", cfg.Workload, name)
		}
	}
	if len(res.Metrics) != len(names) {
		return nil, fmt.Errorf("%s: %d metrics reported, %d defined", cfg.Workload, len(res.Metrics), len(names))
	}
	if err := validMetrics(res); err != nil {
		return nil, err
	}
	return res, nil
}
