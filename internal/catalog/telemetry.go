package catalog

import (
	"timedmedia/internal/telemetry"
	"timedmedia/internal/wal"
)

// dbTelemetry caches the stage histograms the catalog's hot paths
// record into, so observing costs one atomic pointer load rather than
// a registry lookup.
type dbTelemetry struct {
	reg     *telemetry.Registry
	expand  *telemetry.Histogram
	decode  *telemetry.Histogram
	journal *telemetry.Histogram

	// checkpoint times Save/Checkpoint end to end; ckptFull/ckptIncr
	// count completed checkpoints by mode and the Bytes pair sums the
	// container bytes they made durable; promotions counts Checkpoint
	// calls that went full, by reason; chainFiles is the length of the
	// chain the current MANIFEST names, set where one is written or
	// loaded so a scrape never waits on saveMu.
	checkpoint    *telemetry.Histogram
	ckptFull      *telemetry.Counter
	ckptIncr      *telemetry.Counter
	ckptFullBytes *telemetry.Counter
	ckptIncrBytes *telemetry.Counter
	promotions    map[string]*telemetry.Counter
	chainFiles    *telemetry.Gauge

	// queryPlan times the planner's index selection; probes counts
	// candidate sourcing per index (plan label → counter), with the
	// planScan entry pointing at the scan-fallback counter.
	queryPlan *telemetry.Histogram
	probes    map[string]*telemetry.Counter

	// versionGone counts View.AsOf refusals below the version floor.
	versionGone *telemetry.Counter
}

func newDBTelemetry(reg *telemetry.Registry) *dbTelemetry {
	// Create every stage series up front so /metrics shows a
	// zero-valued line for each stage before its first observation.
	for _, stage := range []string{
		telemetry.StageLookup,
		telemetry.StageExpand,
		telemetry.StageDecode,
		telemetry.StagePayload,
		telemetry.StageJournalAppend,
		telemetry.StageExpcacheFill,
		telemetry.StageWALFsync,
		telemetry.StageBlobRead,
		telemetry.StageQueryPlan,
		telemetry.StageCheckpoint,
		telemetry.StageAsOfResolve,
	} {
		reg.Histogram(telemetry.StageFamily, stage)
	}
	reg.Histogram(telemetry.WALBatchFamily, "")
	probes := make(map[string]*telemetry.Counter, len(indexPlans)+1)
	for _, idx := range indexPlans {
		probes[idx] = reg.Counter(telemetry.IndexProbeFamily, `index="`+idx+`"`)
	}
	probes[planScan] = reg.Counter(telemetry.IndexScanFallbackFamily, "")
	promotions := make(map[string]*telemetry.Counter, len(promotionReasons))
	for _, reason := range promotionReasons {
		promotions[reason] = reg.Counter(telemetry.CheckpointPromotionFamily, `reason="`+reason+`"`)
	}
	return &dbTelemetry{
		reg:        reg,
		expand:     reg.Histogram(telemetry.StageFamily, telemetry.StageExpand),
		decode:     reg.Histogram(telemetry.StageFamily, telemetry.StageDecode),
		journal:    reg.Histogram(telemetry.StageFamily, telemetry.StageJournalAppend),
		checkpoint: reg.Histogram(telemetry.StageFamily, telemetry.StageCheckpoint),
		ckptFull:   reg.Counter(telemetry.CheckpointFamily, `mode="full"`),
		ckptIncr:   reg.Counter(telemetry.CheckpointFamily, `mode="incremental"`),

		ckptFullBytes: reg.Counter(telemetry.CheckpointBytesFamily, `mode="full"`),
		ckptIncrBytes: reg.Counter(telemetry.CheckpointBytesFamily, `mode="incremental"`),
		promotions:    promotions,
		chainFiles:    reg.Gauge(telemetry.CheckpointChainFilesFamily, ""),
		queryPlan:     reg.Histogram(telemetry.StageFamily, telemetry.StageQueryPlan),
		probes:        probes,

		versionGone: reg.Counter(telemetry.VersionGoneFamily, ""),
	}
}

// SetTelemetry attaches a metrics registry: expand/decode/journal
// latencies, expansion-cache fill times and journal fsyncs are
// recorded into its stage histograms from then on. Safe to call on a
// live DB; passing the registry already attached is a no-op in effect
// (series are get-or-create). BLOB read timing additionally needs the
// store wrapped at construction — use WithTelemetry for that.
func (db *DB) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	db.tel.Store(newDBTelemetry(reg))
	db.cache.SetFillObserver(reg.Histogram(telemetry.StageFamily, telemetry.StageExpcacheFill))
	db.mu.Lock()
	db.wireFsyncLocked()
	db.mu.Unlock()
}

// Telemetry returns the attached registry (nil when none).
func (db *DB) Telemetry() *telemetry.Registry {
	if t := db.tel.Load(); t != nil {
		return t.reg
	}
	return nil
}

// wireFsyncLocked points the attached journal's fsync timing at the
// wal_fsync stage histogram and its group-commit batch sizes at the
// wal_batch_size histogram. Wrapped journals (fault injection) that
// don't expose the setter methods are simply unobserved. Assumes
// db.mu is held.
func (db *DB) wireFsyncLocked() {
	t := db.tel.Load()
	if t == nil || db.wal == nil {
		return
	}
	if o, ok := db.wal.(interface{ SetFsyncObserver(wal.FsyncObserver) }); ok {
		o.SetFsyncObserver(t.reg.Histogram(telemetry.StageFamily, telemetry.StageWALFsync))
	}
	if o, ok := db.wal.(interface{ SetBatchObserver(wal.FsyncObserver) }); ok {
		o.SetBatchObserver(t.reg.Histogram(telemetry.WALBatchFamily, ""))
	}
}
