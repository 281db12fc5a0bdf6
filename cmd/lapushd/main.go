// Command lapushd serves a probabilistic database over HTTP/JSON. It
// loads the same CSV files and snapshots as cmd/lapush, then answers
// concurrent queries with a bounded plan cache, per-request deadlines,
// and Prometheus-format metrics. With -data it runs over a durable
// versioned store: mutations arrive through POST /v1/ingest, are logged
// to a write-ahead log before they are acknowledged, and periodically
// fold into snapshot checkpoints; on restart the store recovers the
// checkpoint plus WAL (truncating a torn tail) and the -rel/-load seed
// is ignored in favor of the recovered state.
//
// Usage:
//
//	lapushd -rel Likes=likes.csv -rel Stars=stars.csv -addr :8080
//	lapushd -load db.lpd -workers 16 -cache 512
//	lapushd -data /var/lib/lapushd -rel Likes=likes.csv -wal-fsync always
//	lapushd -replica-of http://primary:8080 -data /var/lib/lapushd-replica -addr :8081
//
// Endpoints:
//
//	POST /v1/query      evaluate a conjunctive query and rank its answers
//	POST /v1/rank_batch evaluate several queries against one pinned version
//	POST /v1/explain    show minimal plans and dissociations
//	POST /v1/ingest    apply a mutation batch, publish a new version
//	GET  /v1/relations list the live version's relations
//	GET  /v1/store     store version, WAL bytes, checkpoint progress
//	GET  /v1/wal       stream the retained mutation log to tailing replicas
//	GET  /v1/checkpoint ship a fingerprinted snapshot for replica bootstrap
//	POST /v1/promote   promote this replica to primary on a new epoch (admin)
//	GET  /healthz      liveness probe (role, epoch, applied seq/lag on replicas)
//	GET  /metrics      Prometheus text metrics
//
// With -replica-of the process is a read-only replica: it bootstraps
// from the primary's checkpoint, tails its WAL, and serves bit-identical
// reads; with -data it persists what it applies and a restart resumes
// from local state. POST /v1/promote (optionally {"min_seq": N}) turns
// it into the primary of a new write lineage, stamped with a durably
// bumped promotion epoch.
//
// With -peers the process handshakes with the listed lapushd nodes at
// startup and keeps polling them: if any peer reports a higher
// promotion epoch, this node fences itself — it serves reads but
// refuses writes with 503 and points clients at the promoted primary —
// instead of forking the WAL. Give a primary its replicas as -peers so
// a crashed-and-restarted primary cannot resurrect a stale lineage.
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight queries before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lapushdb"
	"lapushdb/internal/loader"
	"lapushdb/internal/replica"
	"lapushdb/internal/server"
	"lapushdb/internal/store"
)

type relFlags []string

func (r *relFlags) String() string     { return strings.Join(*r, ",") }
func (r *relFlags) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	var rels, dets, keys relFlags
	flag.Var(&rels, "rel", "relation as Name=file.csv (repeatable)")
	flag.Var(&dets, "det", "declare a relation deterministic (repeatable)")
	flag.Var(&keys, "key", "declare a key as Rel=col1,col2 (repeatable)")
	loadFile := flag.String("load", "", "restore a database snapshot instead of loading CSVs")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 8, "max queries evaluating concurrently")
	cacheSize := flag.Int("cache", 256, "plan cache capacity (entries)")
	resultCacheSize := flag.Int("result-cache", 512, "result cache capacity (entries); repeated identical requests at an unchanged store version are served without re-evaluation")
	maxBatch := flag.Int("max-batch", 64, "max queries per /v1/rank_batch request")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-query deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested deadlines")
	maxBody := flag.Int64("max-body", 1<<20, "request body size limit in bytes")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	maxRows := flag.Int("max-rows", 0, "cap on intermediate rows per query (exceeding fails with 422; 0 disables; ceiling for the max_rows request field)")
	queueWait := flag.Duration("queue-wait", 0, "estimated worker-queue wait; saturated-pool requests with less remaining deadline are shed with 429 (0 disables)")
	dataDir := flag.String("data", "", "durable store directory (WAL + checkpoints); empty serves in-memory only")
	walFsync := flag.String("wal-fsync", "always", "WAL fsync policy: always (no acknowledged batch is ever lost) or never")
	checkpointEvery := flag.Int("checkpoint-every", 256, "checkpoint after this many mutation batches (<0 disables automatic checkpoints)")
	replicaOf := flag.String("replica-of", "", "run as a read replica of the primary lapushd at this base URL (e.g. http://primary:8080); ingestion is refused with the primary's address, all state arrives by tailing the primary's WAL; POST /v1/promote turns it into the primary")
	var peers relFlags
	flag.Var(&peers, "peers", "base URL of a peer lapushd to handshake promotion epochs with (repeatable); a peer on a higher epoch fences this node into read-only mode")
	flag.Parse()

	if len(rels) == 0 && *loadFile == "" && *dataDir == "" && *replicaOf == "" {
		fmt.Fprintln(os.Stderr, "lapushd: need at least one -rel, a -load snapshot, a -data store directory, or -replica-of")
		flag.Usage()
		os.Exit(2)
	}
	if *replicaOf != "" && (len(rels) > 0 || *loadFile != "") {
		// A replica's whole state comes from the primary; a local seed
		// would only fork it into an immediate re-bootstrap.
		fmt.Fprintln(os.Stderr, "lapushd: -replica-of is incompatible with -rel and -load (the replica bootstraps from the primary)")
		os.Exit(2)
	}
	primaryURL := strings.TrimSuffix(*replicaOf, "/")

	var db *lapushdb.DB
	var err error
	if len(rels) > 0 || *loadFile != "" {
		db, err = loader.Build(*loadFile, rels, dets, keys)
		if err != nil {
			fail("%v", err)
		}
	}

	// The CSV/snapshot input seeds the store on first boot only; once
	// the data directory holds a manifest, recovered state wins.
	st, err := store.Open(db, store.Options{
		Dir:             *dataDir,
		Fsync:           store.FsyncPolicy(*walFsync),
		CheckpointEvery: *checkpointEvery,
	})
	if err != nil {
		fail("%v", err)
	}
	defer st.Close()

	cfg := server.Config{
		Workers:         *workers,
		CacheSize:       *cacheSize,
		ResultCacheSize: *resultCacheSize,
		MaxBatchQueries: *maxBatch,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		MaxBodyBytes:    *maxBody,
		MaxRows:         *maxRows,
		QueueWait:       *queueWait,
	}
	for _, p := range peers {
		cfg.Peers = append(cfg.Peers, strings.TrimSuffix(p, "/"))
	}
	if primaryURL != "" {
		tailer, err := replica.Start(replica.Options{Primary: primaryURL, Store: st})
		if err != nil {
			fail("%v", err)
		}
		defer tailer.Close()
		cfg.ReplicaOf = primaryURL
		cfg.ReplicaStatus = tailer.Status
		cfg.StopTailer = tailer.Close
	}
	srv := server.NewWithStore(st, cfg)
	defer srv.Close()
	if len(cfg.Peers) > 0 {
		// One synchronous handshake round before serving: a restarted old
		// primary that can reach the promoted replica fences itself before
		// it answers a single write on the stale lineage.
		hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
		if srv.CheckPeers(hctx) {
			fmt.Fprintln(os.Stderr, "lapushd: a peer reported a newer promotion epoch; starting fenced (read-only)")
		}
		hcancel()
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	v := st.Current()
	tuples := 0
	infos := v.DB.RelationInfos()
	for _, ri := range infos {
		tuples += ri.Tuples
	}
	durable := "in-memory"
	if *dataDir != "" {
		durable = fmt.Sprintf("durable in %s (wal-fsync=%s)", *dataDir, *walFsync)
	}
	role := "primary"
	if primaryURL != "" {
		role = fmt.Sprintf("read replica of %s", primaryURL)
	}
	fmt.Fprintf(os.Stderr, "lapushd: serving %d relations (%d tuples) at version %d (epoch %d), %s, %s, on %s\n",
		len(infos), tuples, v.Seq, v.Epoch, durable, role, *addr)

	select {
	case err := <-errCh:
		fail("serve: %v", err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "lapushd: shutting down, draining in-flight queries")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail("shutdown: %v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lapushd: "+format+"\n", args...)
	os.Exit(1)
}
