// Command loadgen drives the request mixes the repository's benchmark
// (perfbench/, BENCHMARK.json) has no workload for: batch
// (/v1/rank_batch envelopes of overlapping queries) and replica_read
// (ranks on a read replica while ingest churn runs on the primary),
// against a live lapushd via -addr (plus -replica-addr) or a hermetic
// in-process one via -hermetic, which boots a WAL-tailing
// primary+replica pair whenever replica_read is selected. Datasets are
// deterministic seeded chain/star/TPC-H shapes.
//
// The special "failover" workload (hermetic only, opt-in) boots a
// dedicated primary+replica pair, kills the primary abruptly mid-run,
// promotes the replica through POST /v1/promote with the min_seq
// guard, re-points writers at the promoted node, and reports the
// measured write/read availability gaps and promotion latency in the
// result's metrics map.
//
// Usage:
//
//	loadgen -hermetic
//	loadgen -addr http://127.0.0.1:8080 -workloads batch -duration 30s
//	loadgen -addr http://primary:8080 -replica-addr http://replica:8080 -workloads replica_read
//	loadgen -hermetic -workloads failover -duration 6s
//	loadgen -hermetic -duration 1s -warmup 200ms -max-error-rate 0.05 > smoke.jsonl
//
// Each workload runs warmup → timed window at -c concurrency; request
// streams are pure functions of (-seed, index), so two runs with the
// same flags issue byte-identical request sequences. Stdout carries one
// JSON line per workload (a bench.WorkloadResult: ops, per-status
// counts, p50/p95/p99, metrics); progress goes to stderr. With
// thresholds set (-max-error-rate, -max-p99, -min-ops) the process
// exits non-zero on a violation, which is how CI's smoke job fails on
// error-rate or gross latency blowups without flaking on scheduler
// noise. Performance is measured by perfbench, not here.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lapushdb/internal/bench"
	"lapushdb/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "base URL of a live lapushd (e.g. http://127.0.0.1:8080)")
	replicaAddr := fs.String("replica-addr", "", "base URL of a read replica of -addr; replica-targeted requests (replica_read mix) go here")
	hermetic := fs.Bool("hermetic", false, "spin up an in-process lapushd over an ephemeral store instead of targeting -addr (plus a WAL-tailing replica when replica_read is selected)")
	workloads := fs.String("workloads", strings.Join(bench.WorkloadNames(), ","), "comma-separated workload mixes to run; add \"failover\" (hermetic only) for the scripted crash-failover availability run")
	concurrency := fs.Int("c", 8, "concurrent workers per workload")
	warmup := fs.Duration("warmup", time.Second, "unrecorded warmup per workload")
	duration := fs.Duration("duration", 5*time.Second, "timed window per workload")
	seed := fs.Int64("seed", 1, "workload stream seed (same seed => byte-identical request streams)")
	scale := fs.Float64("scale", 1, "dataset scale factor over the default smoke sizes")
	maxErrorRate := fs.Float64("max-error-rate", 0, "fail if any workload's error rate exceeds this (0 disables)")
	maxP99 := fs.Duration("max-p99", 0, "fail if any workload's p99 exceeds this (0 disables)")
	minOps := fs.Int64("min-ops", 0, "fail if any workload completes fewer ops (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "loadgen: "+format+"\n", args...)
	}

	if (*addr == "") == !*hermetic {
		return errors.New("exactly one of -addr or -hermetic is required")
	}
	if *scale <= 0 {
		return errors.New("-scale must be positive")
	}
	cfg := bench.Config{Seed: *seed}.WithDefaults()
	cfg.ChainN = scaleInt(cfg.ChainN, *scale)
	cfg.StarN = scaleInt(cfg.StarN, *scale)
	cfg.Suppliers = scaleInt(cfg.Suppliers, *scale)
	cfg.Parts = scaleInt(cfg.Parts, *scale)

	wantReplica, wantFailover := false, false
	var wls []bench.Workload
	for _, name := range strings.Split(*workloads, ",") {
		switch name = strings.TrimSpace(name); name {
		case "":
		case "failover":
			// The failover workload kills its primary mid-run, so it
			// always gets a dedicated hermetic pair after the regular
			// mixes finish.
			wantFailover = true
		default:
			wl, err := bench.ByName(cfg, name)
			if err != nil {
				return fmt.Errorf("%w; \"failover\" also runs, with -hermetic", err)
			}
			wantReplica = wantReplica || name == "replica_read"
			wls = append(wls, wl)
		}
	}
	if len(wls) == 0 && !wantFailover {
		return errors.New("no workloads selected")
	}
	if wantFailover && !*hermetic {
		return errors.New("the failover workload kills its primary mid-run; it only runs hermetically (-hermetic), not against a live -addr")
	}
	base, replicaBase := *addr, *replicaAddr
	if *hermetic {
		if replicaBase != "" {
			return errors.New("-replica-addr targets a live replica; it cannot combine with -hermetic")
		}
		if wantReplica {
			pair, err := server.NewHermeticPair(server.Config{})
			if err != nil {
				return fmt.Errorf("hermetic pair: %w", err)
			}
			defer pair.Close()
			base, replicaBase = pair.Primary.URL, pair.Replica.URL
			logf("hermetic lapushd primary at %s, replica at %s", base, replicaBase)
		} else if len(wls) > 0 {
			ts := server.NewHermetic(server.Config{})
			defer ts.Close()
			base = ts.URL
			logf("hermetic lapushd at %s", base)
		}
	}
	if wantReplica && replicaBase == "" {
		logf("no -replica-addr; replica_read reads fall back to the primary")
	}

	rc := bench.RunConfig{
		BaseURL:     strings.TrimRight(base, "/"),
		ReplicaURL:  strings.TrimRight(replicaBase, "/"),
		Concurrency: *concurrency,
		Warmup:      *warmup,
		Duration:    *duration,
		Logf:        logf,
	}
	// seedData loads the dataset and, on a pair, waits for the replica
	// to hold it: the first replica reads must not race the shipping.
	seedData := func(rc bench.RunConfig) error {
		setup := bench.SetupRequests(cfg)
		logf("seeding dataset (%d setup requests, seed %d, scale %g)", len(setup), *seed, *scale)
		if err := bench.Setup(ctx, rc, setup); err != nil {
			return err
		}
		wctx, cancel := context.WithTimeout(ctx, time.Minute)
		defer cancel()
		return bench.WaitConverged(wctx, rc)
	}
	emit := json.NewEncoder(stdout).Encode

	th := bench.Thresholds{MaxErrorRate: *maxErrorRate, MaxP99: *maxP99, MinOps: *minOps}
	var violations []error
	if len(wls) > 0 {
		if err := seedData(rc); err != nil {
			return err
		}
		for _, wl := range wls {
			res, err := bench.Run(ctx, rc, wl)
			if err != nil {
				return fmt.Errorf("workload %s: %w", wl.Name, err)
			}
			logf("%-12s ops=%d (%.1f/s) errors=%d p50=%.1fms p95=%.1fms p99=%.1fms status=%v",
				res.Name, res.Ops, res.OpsPerSec, res.Errors, res.P50MS, res.P95MS, res.P99MS, res.Status)
			if err := emit(res); err != nil {
				return err
			}
			if err := th.Check(res); err != nil {
				violations = append(violations, err)
			}
		}
	}

	if wantFailover {
		// A dedicated pair: the workload kills the primary, so nothing
		// else can share it. Thresholds deliberately do not apply — the
		// kill window makes a burst of errors part of the measurement.
		pair, err := server.NewHermeticPair(server.Config{})
		if err != nil {
			return fmt.Errorf("failover pair: %w", err)
		}
		defer pair.Close()
		frc := rc
		frc.BaseURL, frc.ReplicaURL = pair.Primary.URL, pair.Replica.URL
		logf("failover pair: primary %s, replica %s", frc.BaseURL, frc.ReplicaURL)
		if err := seedData(frc); err != nil {
			return fmt.Errorf("failover setup: %w", err)
		}
		res, err := bench.RunFailover(ctx, frc, bench.FailoverHooks{Kill: pair.KillPrimary})
		if err != nil {
			return fmt.Errorf("failover workload: %w", err)
		}
		logf("%-12s ops=%d (%.1f/s) errors=%d write_gap=%.1fms read_gap=%.1fms promote=%.1fms stranded=%.0f status=%v",
			res.Name, res.Ops, res.OpsPerSec, res.Errors,
			res.Metrics["write_gap_ms"], res.Metrics["read_gap_ms"], res.Metrics["promote_ms"], res.Metrics["stranded_acked_writes"], res.Status)
		if err := emit(res); err != nil {
			return err
		}
	}

	for _, v := range violations {
		logf("THRESHOLD VIOLATION: %v", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d threshold violations", len(violations))
	}
	return nil
}

func scaleInt(n int, f float64) int {
	v := int(float64(n) * f)
	if v < 1 {
		v = 1
	}
	return v
}
