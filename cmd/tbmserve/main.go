// Command tbmserve serves a time-based-media database over HTTP — a
// minimal video-on-demand facade over the catalog (see
// internal/server for the API).
//
// Durability: mutations made over HTTP (e.g. POST .../cut) are
// journaled to the active WAL segment (<dir>/journal.NNNNNN.log)
// before the response returns; segments rotate at -wal-segment-mb /
// -wal-segment-records. A background checkpointer (-save-every) keeps
// recovery bounded: it writes only the state changed since the last
// checkpoint as a delta, records the chain in <dir>/MANIFEST, and
// compacts covered segments — starting a new chain with a full base
// only when the chain reaches its bound. A corrupt base recovers from
// its retained backup at startup, and a start that replayed journal
// records checkpoints them before it listens, so each record is
// replayed at most once. SIGINT/SIGTERM triggers a graceful drain:
// stop accepting, finish in-flight requests, sync the journal, write a
// final checkpoint of what changed since the last one. The data
// directory is guarded by a flock'd <dir>/LOCK so two servers cannot
// corrupt one catalog.
//
// Replication: a primary serves its WAL as a streaming feed under
// /v1/repl/ (on the main listener, or a dedicated one via
// -repl-listen). A follower started with -replicate-from URL
// bootstraps from the primary's checkpoint chain, tails the feed, serves
// reads (rejecting writes with 409 toward the primary), reports
// catch-up at /v1/readyz, and can be promoted to a primary with
// POST /v1/repl/promote (see cmd/tbmctl).
//
// Observability: every response carries an X-Request-ID, GET /metrics
// serves Prometheus text (JSON under Accept: application/json), recent
// request traces are at GET /v1/debug/trace, and a structured JSON
// access log is written to stderr. -debug-addr starts a second,
// loopback-only listener exposing net/http/pprof; it is off by
// default so profiling endpoints never share the public port.
//
// Usage:
//
//	tbmserve -dir db -addr :8080 [-save-every 5m] [-request-timeout 30s]
//	         [-max-inflight 1024] [-shutdown-grace 10s] [-cache-mb 256]
//	         [-debug-addr 127.0.0.1:6060] [-wal-batch-window 2ms]
//	         [-wal-segment-mb 64] [-wal-segment-records 1048576]
//	         [-repl-listen :8090 | -replicate-from http://primary:8080]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/repl"
	"timedmedia/internal/server"
	"timedmedia/internal/telemetry"
)

// config carries the parsed flags through run.
type config struct {
	dir, addr, debugAddr        string
	replicateFrom, replListen   string
	cacheMB                     int64
	saveEvery                   time.Duration
	requestTimeout              time.Duration
	walBatchWindow              time.Duration
	walSegmentMB, walSegmentRec int64
	maxInFlight                 int
	shutdownGrace               time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.dir, "dir", "tbmdb", "database directory")
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.Int64Var(&cfg.cacheMB, "cache-mb", catalog.DefaultCacheCapacity>>20,
		"expansion cache capacity in MiB (0 = unbounded)")
	flag.DurationVar(&cfg.saveEvery, "save-every", 5*time.Minute,
		"checkpoint interval: each checkpoint writes what changed since the last as a delta (0 disables periodic checkpoints; the journal still persists every mutation, a restart that replayed journal records checkpoints them before serving, and SIGTERM writes a final checkpoint)")
	flag.DurationVar(&cfg.requestTimeout, "request-timeout", server.DefaultRequestTimeout,
		"per-request deadline (0 disables)")
	flag.IntVar(&cfg.maxInFlight, "max-inflight", server.DefaultMaxInFlight,
		"concurrent request bound; beyond it requests are shed with 503 (0 = unbounded)")
	flag.DurationVar(&cfg.shutdownGrace, "shutdown-grace", 10*time.Second,
		"how long a SIGTERM drain waits for in-flight requests")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "",
		"optional second listen address for net/http/pprof (e.g. 127.0.0.1:6060); empty disables")
	flag.DurationVar(&cfg.walBatchWindow, "wal-batch-window", catalog.DefaultWALBatchWindow,
		"group-commit straggler window: how long a journal fsync waits for concurrent mutators to coalesce (0 disables batching; a lone writer never waits)")
	flag.Int64Var(&cfg.walSegmentMB, "wal-segment-mb", 0,
		"seal a WAL segment once it reaches this many MiB (0 = default 64)")
	flag.Int64Var(&cfg.walSegmentRec, "wal-segment-records", 0,
		"seal a WAL segment once it holds this many records (0 = default 1048576)")
	flag.StringVar(&cfg.replicateFrom, "replicate-from", "",
		"run as a read replica of the primary at this base URL (e.g. http://primary:8080)")
	flag.StringVar(&cfg.replListen, "repl-listen", "",
		"serve the replication feed on a dedicated address instead of the main listener (primary only)")
	flag.Parse()

	if err := run(cfg); err != nil {
		log.Fatal(err)
	}
}

func run(cfg config) error {
	// One registry spans the catalog, the HTTP layer, and replication,
	// so a single /metrics scrape covers stage latencies, per-route
	// request histograms, and replication lag alike.
	reg := telemetry.NewRegistry()
	accessLog := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cfg.replicateFrom != "" {
		return runFollower(ctx, cfg, reg, accessLog)
	}
	return runPrimary(ctx, cfg, reg, accessLog)
}

func catalogOptions(cfg config, reg *telemetry.Registry) []catalog.Option {
	return []catalog.Option{
		catalog.WithCacheCapacity(cfg.cacheMB << 20),
		catalog.WithWALBatchWindow(cfg.walBatchWindow),
		catalog.WithWALSegmentBytes(cfg.walSegmentMB << 20),
		catalog.WithWALSegmentRecords(cfg.walSegmentRec),
		catalog.WithTelemetry(reg),
	}
}

func logRecovery(db *catalog.DB) {
	if rec := db.Recovery(); rec.Eventful() {
		log.Printf("recovery: backup=%v quarantined=%q checkpoints: %d applied, broken=%v manifest_corrupt=%v journal: %d records over %d segments, %d skipped, torn=%v blobs_swept=%d",
			rec.UsedBackup, rec.Quarantined, rec.CheckpointsApplied,
			rec.CheckpointChainBroken, rec.ManifestCorrupt,
			rec.JournalRecords, rec.SegmentsReplayed, rec.JournalSkipped, rec.JournalTorn, rec.BlobsSwept)
	}
}

// startDebug starts the opt-in profiling listener. The handlers are
// registered on an explicit mux (not http.DefaultServeMux) so nothing
// else that touches the default mux can leak onto the debug port, and
// the debug port never shares a mux with the public API.
func startDebug(addr string) *http.Server {
	if addr == "" {
		return nil
	}
	dmux := http.NewServeMux()
	dmux.HandleFunc("/debug/pprof/", pprof.Index)
	dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	debugSrv := &http.Server{Addr: addr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		log.Printf("pprof listening on %s", addr)
		if err := debugSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			log.Printf("pprof listener: %v", err)
		}
	}()
	return debugSrv
}

func runPrimary(ctx context.Context, cfg config, reg *telemetry.Registry, accessLog *slog.Logger) error {
	store, err := blob.OpenFileStore(cfg.dir)
	if err != nil {
		return err
	}
	defer store.Close()

	// Open loads the checkpoint chain the MANIFEST names (rebuilding
	// it from the file heads, down to the backup base, on corruption),
	// replays the mutation journal, and attaches it for writing.
	db, err := catalog.Open(cfg.dir, store, catalogOptions(cfg, reg)...)
	if err != nil {
		return err
	}
	logRecovery(db)
	// A restart that replayed journal records checkpoints them before it
	// serves, whatever -save-every says — the crash path's counterpart of
	// SIGTERM's final checkpoint — so the next restart does not replay them
	// again. The usual rules pick a delta or a new base. On failure the
	// journal still holds every acked write, so serve from it. A load
	// that fell back to the backup base skips it: a new base would delete
	// the abandoned chain's files and compact the segments before anyone
	// has read the "recovery:" line, so that evidence stays until the
	// timer or SIGTERM checkpoints.
	if n := db.Recovery().JournalRecords; n > 0 && db.Recovery().FellBack() {
		log.Printf("recovery: fell back to the backup base; %d replayed records stay in the journal until the next checkpoint", n)
	} else if n > 0 {
		if err := db.Checkpoint(cfg.dir); err != nil {
			log.Printf("recovery checkpoint failed: %v", err)
		} else {
			log.Printf("recovery: checkpointed %d replayed records", n)
		}
	}

	// Bind before announcing: the line names the bound address, so
	// -addr 127.0.0.1:0 serves on a free port and says which.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	cacheDesc := fmt.Sprintf("%d MiB", cfg.cacheMB)
	if cfg.cacheMB <= 0 {
		cacheDesc = "unbounded"
	}
	fmt.Printf("serving %d objects from %s on %s (expansion cache %s, snapshot every %v)\n",
		db.Len(), cfg.dir, ln.Addr(), cacheDesc, cfg.saveEvery)

	// The replication feed rides the main listener unless -repl-listen
	// moves it to a dedicated one (e.g. an internal-only port).
	feed := repl.NewPrimary(db, store, cfg.dir, reg)
	srvOpts := []server.Option{
		server.WithMaxInFlight(cfg.maxInFlight),
		server.WithRequestTimeout(cfg.requestTimeout),
		server.WithTelemetry(reg),
		server.WithAccessLog(accessLog),
	}
	var feedSrv *http.Server
	if cfg.replListen == "" {
		feed.Register(func(pattern, name string, h http.HandlerFunc) {
			srvOpts = append(srvOpts, server.WithRoute(pattern, name, h))
		})
	} else {
		fmux := http.NewServeMux()
		feed.Register(func(pattern, name string, h http.HandlerFunc) { fmux.HandleFunc(pattern, h) })
		feedSrv = &http.Server{Addr: cfg.replListen, Handler: fmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Printf("replication feed listening on %s", cfg.replListen)
			if err := feedSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("replication listener: %v", err)
			}
		}()
	}

	srv := &http.Server{
		Handler:           server.New(db, srvOpts...),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	debugSrv := startDebug(cfg.debugAddr)

	// Background checkpointer: HTTP-created derivations reach durable
	// checkpoint state without waiting for shutdown, and recovery time
	// stays bounded by live state plus the uncheckpointed tail. The
	// journal already makes every mutation crash-safe. A checkpoint
	// whose data landed but whose WAL cleanup failed
	// (catalog.ErrJournalTruncate) is logged and retried with backoff
	// by the checkpointer itself — nothing was lost, the journal just
	// keeps growing until cleanup succeeds.
	stopCheckpointer := db.StartCheckpointer(cfg.dir, cfg.saveEvery, func(err error) {
		if errors.Is(err, catalog.ErrJournalTruncate) {
			log.Printf("checkpoint: %v", err)
			return
		}
		log.Printf("checkpoint failed: %v", err)
	})

	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		stopCheckpointer()
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: drain in-flight requests, sync the journal,
	// take a final checkpoint: what changed since the last one, as a
	// delta unless the chain must start, and nothing when nothing did.
	log.Printf("shutdown: draining (grace %v)", cfg.shutdownGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("shutdown: drain incomplete: %v", err)
	}
	if feedSrv != nil {
		feedSrv.Shutdown(drainCtx)
	}
	if debugSrv != nil {
		debugSrv.Shutdown(drainCtx)
	}
	// The final checkpoint is the last: a timer one after CloseJournal
	// would find no journal and write a full base.
	stopCheckpointer()
	if err := db.SyncJournal(); err != nil {
		log.Printf("shutdown: journal sync: %v", err)
	}
	if err := db.Checkpoint(cfg.dir); err != nil {
		return fmt.Errorf("shutdown: final checkpoint: %w", err)
	}
	if err := db.CloseJournal(); err != nil {
		log.Printf("shutdown: journal close: %v", err)
	}
	log.Printf("shutdown: complete (final checkpoint at seq %d, %d objects)", db.Seq(), db.Len())
	return nil
}

func runFollower(ctx context.Context, cfg config, reg *telemetry.Registry, accessLog *slog.Logger) error {
	// The follower owns its catalog and blob store (a re-bootstrap
	// replaces them), so the HTTP handler is swapped atomically
	// whenever the replica's catalog is rebuilt.
	var cur atomic.Pointer[server.Server]
	var f *repl.Follower

	build := func(db *catalog.DB) *server.Server {
		return server.New(db,
			server.WithMaxInFlight(cfg.maxInFlight),
			server.WithRequestTimeout(cfg.requestTimeout),
			server.WithTelemetry(reg),
			server.WithAccessLog(accessLog),
			server.WithReadiness(func() (bool, string) { return f.Ready() }),
			server.WithWriteGate(func() (bool, string) { return f.Promoted(), f.PrimaryURL() }),
			server.WithReplStatus(func() any { return f.Status() }),
			server.WithRoute("POST /v1/repl/promote", "repl_promote",
				func(w http.ResponseWriter, r *http.Request) {
					if err := f.Promote(); err != nil {
						http.Error(w, err.Error(), http.StatusInternalServerError)
						return
					}
					log.Printf("promoted to primary at seq %d", f.DB().Seq())
					w.Header().Set("Content-Type", "application/json")
					json.NewEncoder(w).Encode(map[string]any{
						"status": "primary", "seq": f.DB().Seq(),
					})
				}),
		)
	}

	f, err := repl.Start(cfg.replicateFrom, cfg.dir, repl.Options{
		CatalogOptions: catalogOptions(cfg, reg),
		Registry:       reg,
		OnSwap:         func(db *catalog.DB) { cur.Store(build(db)) },
		Logf:           log.Printf,
		SaveEvery:      cfg.saveEvery,
	})
	if err != nil {
		return err
	}
	cur.Store(build(f.DB()))

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		f.Close()
		return err
	}
	defer ln.Close()
	fmt.Printf("replicating %s into %s, serving reads on %s (%d objects at start)\n",
		cfg.replicateFrom, cfg.dir, ln.Addr(), f.DB().Len())

	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			cur.Load().ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	debugSrv := startDebug(cfg.debugAddr)

	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		f.Close()
		return err
	case <-ctx.Done():
	}

	log.Printf("shutdown: draining (grace %v)", cfg.shutdownGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("shutdown: drain incomplete: %v", err)
	}
	if debugSrv != nil {
		debugSrv.Shutdown(drainCtx)
	}
	// Close stops the tail loop and releases the replica's journal and
	// store; the directory resumes from its applied seq on restart.
	if err := f.Close(); err != nil {
		log.Printf("shutdown: replica close: %v", err)
	}
	log.Printf("shutdown: complete (%d objects replicated)", f.DB().Len())
	return nil
}
