// Package telemetry is the server's dependency-free observability
// layer: per-stage spans collected into bounded request traces, each
// carrying its request ID and propagated through context, lock-cheap
// fixed-bucket latency histograms, and a registry that renders
// everything in Prometheus text exposition format.
//
// The package deliberately depends on nothing but the standard
// library and knows nothing about HTTP or the catalog; the server,
// catalog, expansion cache, journal and BLOB store each accept the
// small piece they need (a *Histogram, an Observer, a *Tracer) and
// record into it. Every recording type is nil-safe — a nil
// *Histogram, *Counter or *Tracer ignores observations — so
// instrumented code needs no "is telemetry on?" branches.
//
// Conventional metric families (shared between the server and the
// catalog so one /metrics exposition covers both):
//
//	tbm_http_request_duration_seconds{route="..."}  per-endpoint latency
//	tbm_stage_duration_seconds{stage="..."}         per-stage latency
//	                                                (lookup, expand, decode, payload,
//	                                                 journal_append, expcache_fill,
//	                                                 wal_fsync, blob_read)
package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// Metric family names shared across the instrumented packages.
const (
	// RequestFamily is the per-endpoint request latency histogram
	// family; series carry a route="<name>" label.
	RequestFamily = "tbm_http_request_duration_seconds"
	// StageFamily is the per-stage latency histogram family; series
	// carry a stage="<name>" label.
	StageFamily = "tbm_stage_duration_seconds"
	// IndexProbeFamily counts query-planner index probes; series carry
	// an index="<kind|class|attr|provenance|interval>" label naming
	// the index that sourced the candidates.
	IndexProbeFamily = "tbm_index_probes_total"
	// IndexScanFallbackFamily counts planned queries that had no
	// indexable constraint and fell back to a full catalog scan.
	IndexScanFallbackFamily = "tbm_index_scan_fallback_total"
	// CheckpointFamily counts completed catalog checkpoints; series
	// carry a mode="full|incremental" label.
	CheckpointFamily = "tbm_checkpoints_total"
	// CheckpointBytesFamily sums the container bytes those checkpoints
	// made durable, under the same mode label; over CheckpointFamily it
	// gives bytes per checkpoint.
	CheckpointBytesFamily = "tbm_checkpoint_bytes_total"
	// CheckpointPromotionFamily counts Checkpoint calls that wrote a full
	// snapshot instead of a delta, each where a chain had to start;
	// series carry a reason="no_journal|no_base|chain_bound" label.
	CheckpointPromotionFamily = "tbm_checkpoint_promotions_total"
	// CheckpointChainFilesFamily is a gauge: how many files the current
	// MANIFEST names, the chain recovery reads (1 is a lone base).
	CheckpointChainFilesFamily = "tbm_checkpoint_chain_files"
	// WALBatchFamily is the group-commit batch-size histogram: one
	// observation per committed WAL batch, with the record count
	// encoded on the microsecond scale (a batch of n records is
	// observed as n·1µs), so the power-of-two duration buckets double
	// as count buckets — the le="2^k µs" bucket holds batches of
	// ≤ 2^k records.
	WALBatchFamily = "tbm_wal_batch_size"

	// Replication families (see internal/repl). Lag gauges measure the
	// follower's distance behind the primary: sequence numbers and
	// journal bytes still to apply.
	ReplLagSeqsFamily  = "tbm_repl_lag_seqs"
	ReplLagBytesFamily = "tbm_repl_lag_bytes"
	// ReplShippedFamily counts records a primary's feed has written to
	// followers; ReplAppliedFamily counts records a follower applied.
	ReplShippedFamily = "tbm_repl_records_shipped_total"
	ReplAppliedFamily = "tbm_repl_records_applied_total"
	// ReplFeedErrorsFamily counts feed responses a primary ended because
	// its journal holds a durable record whose header does not parse.
	ReplFeedErrorsFamily = "tbm_repl_feed_errors_total"
	// ReplReconnectsFamily counts feed reconnect attempts after a
	// stream drop; ReplBootstrapsFamily counts snapshot bootstraps
	// (initial plus forced re-bootstraps after compaction outran the
	// follower).
	ReplReconnectsFamily = "tbm_repl_reconnects_total"
	ReplBootstrapsFamily = "tbm_repl_bootstraps_total"
	// BlobCorruptionsFamily counts blob payloads that failed their
	// CRC sidecar check on open and were quarantined.
	BlobCorruptionsFamily = "tbm_blob_corruptions_total"
	// VersionGoneFamily counts as_of reads refused because the seq lies
	// below the version floor (retention pruned history past it).
	VersionGoneFamily = "tbm_version_gone_total"
)

// Stage label values used by the instrumented packages.
const (
	StageLookup        = `stage="lookup"`
	StageExpand        = `stage="expand"`
	StageDecode        = `stage="decode"`
	StagePayload       = `stage="payload"`
	StageJournalAppend = `stage="journal_append"`
	StageExpcacheFill  = `stage="expcache_fill"`
	StageWALFsync      = `stage="wal_fsync"`
	StageBlobRead      = `stage="blob_read"`
	StageQueryPlan     = `stage="query_plan"`
	StageCheckpoint    = `stage="checkpoint"`
	StageAsOfResolve   = `stage="asof_resolve"`
)

// Observer receives one latency observation. *Histogram implements
// it; so do test doubles.
type Observer interface {
	Observe(d time.Duration)
}

// Request IDs: a random per-process prefix plus a monotonic counter.
// Unique across restarts (with overwhelming probability), cheap to
// generate, and greppable in logs.
var (
	ridPrefix string // 12 hex digits and the dash
	ridSeq    atomic.Uint64
)

func init() {
	var b [8]byte
	p := uint64(time.Now().UnixNano())
	if _, err := rand.Read(b[:]); err == nil {
		p = binary.BigEndian.Uint64(b[:])
	}
	// Without an entropy source the clock stands in: IDs are for
	// correlation, not security.
	ridPrefix = fmt.Sprintf("%012x-", p&0xffffffffffff)
}

// NewRequestID returns a fresh request identifier, e.g.
// "9f86d081cafe-42".
func NewRequestID() string {
	var b [40]byte
	return string(strconv.AppendUint(append(b[:0], ridPrefix...), ridSeq.Add(1), 10))
}

// Context plumbing. The trace rides the request context so any layer
// below the server's handler can stamp spans without new parameters on
// every call; the trace carries the request ID.

type ctxKey int

const traceKey ctxKey = 0

// WithTrace returns ctx carrying the request trace.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey, tr)
}

// TraceFrom returns the trace carried by ctx (nil if none).
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey).(*Trace)
	return tr
}

// StartSpan opens a named span on the trace carried by ctx and
// returns the function that closes it. Without a trace in ctx the
// returned closure is a no-op, so instrumented code can call it
// unconditionally.
func StartSpan(ctx context.Context, name string) func() {
	tr := TraceFrom(ctx)
	if tr == nil {
		return func() {}
	}
	start := time.Now()
	return func() { tr.AddSpanAt(name, start, time.Since(start)) }
}
