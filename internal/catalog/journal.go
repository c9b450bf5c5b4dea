package catalog

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/interp"
	"timedmedia/internal/wal"
)

// The mutation journal makes the window between checkpoints crash-
// safe: every catalog mutation (register interpretation, add
// non-derived / derived / multimedia object, add sync, delete) appends
// one fsynced, checksummed record to the active WAL segment
// (dir/journal.NNNNNN.log) before the call returns. Load replays the
// segments over the snapshot and checkpoint chain; Save and Checkpoint
// rotate the active segment and compact the covered ones (see
// checkpoint.go).
//
// Records carry a monotonic sequence number and the snapshot records
// the last applied one, so replay is idempotent: a crash between a
// checkpoint's file rename and its compaction merely leaves records
// that replay skips. Sequence numbers are assigned and the frame's
// log position reserved in one db.mu critical section (commitLocked),
// so log order equals sequence order — the invariant the replication
// feed's from_seq resume and the follower's local checkpoints rely
// on. Replay does not lean on it: it skips against one sequence base
// fixed for the whole log (see replayAllLocked) and re-creates objects
// at their recorded IDs (see applyLocked).
//
// A record's bytes are the fixed layout of record.go.

// ErrJournal wraps journal append failures: the mutation was rolled
// back and the catalog is unchanged.
var ErrJournal = errors.New("catalog: journal append failed")

// ErrReplay reports a journal that does not apply cleanly over the
// snapshot it was found with.
var ErrReplay = errors.New("catalog: journal replay failed")

// Store-retry policy for transient BLOB-store errors (see
// durable.ErrTransient): 4 attempts, 2ms/4ms/8ms backoff.
const (
	storeRetries   = 4
	storeRetryBase = 2 * time.Millisecond
)

// Journal operation kinds. A record carries its kind as a one-byte code
// (see opKinds); the names are what errors and RecordInfo report.
// opCollected, an interpretation tombstone, is a snapshot record only:
// a BLOB is collected by a checkpoint, not by a journaled mutation.
const (
	opInterp     = "interpruns"
	opNonDerived = "nonderived"
	opDerived    = "derived"
	opMultimedia = "multimedia"
	opSync       = "sync"
	opDelete     = "delete"
	opCollected  = "collected"
)

// walOp is one journaled mutation. One struct covers every kind; only
// the fields for rec.Kind are populated.
type walOp struct {
	Seq  uint64
	Kind string
	// ID is the object the mutation produced or targeted. Replay
	// verifies reproduced IDs against it.
	ID core.ID

	Name  string
	Attrs map[string]string

	Blob  blob.ID
	Track string

	Op     string
	Inputs []core.ID
	Params []byte

	TimeNum, TimeDen int64
	Comps            []core.ComponentRef

	A, B    int
	MaxSkew int64

	// Interp is the interp.Exported of an opInterp record, in interp's
	// layout (interp.AppendExported).
	Interp []byte

	// Never encoded. Live commits only: a batch item's by-name inputs
	// until applyLocked resolves them into Inputs, and the interpretation
	// an opInterp record registers. Replicated apply only: the record's
	// bytes as they arrived, re-journaled as they are.
	inputNames []string
	it         *interp.Interpretation
	raw        []byte
}

// RecoveryInfo reports what Load / OpenJournal had to do to bring the
// catalog back. Exposed at /metrics so operators can see that a
// restart recovered rather than silently lost data.
type RecoveryInfo struct {
	SnapshotLoaded bool `json:"snapshot_loaded"`
	UsedBackup     bool `json:"used_backup"`
	// Quarantined lists every file Load set aside (path.corrupt): the
	// MANIFEST, a base, a delta.
	Quarantined    []string `json:"quarantined,omitempty"`
	JournalRecords int      `json:"journal_records_replayed"`
	JournalSkipped int      `json:"journal_records_skipped"`
	JournalTorn    bool     `json:"journal_torn_tail"`
	// OpenMs is the wall time Open took at this start, milliseconds.
	OpenMs int64 `json:"open_ms"`
	// BlobsSwept counts the BLOB files Open removed because nothing
	// interprets them (see Open).
	BlobsSwept int `json:"blobs_swept"`

	// Bounded-recovery accounting (see checkpoint.go): how many WAL
	// segments replayed, how many deltas applied over the base, and
	// whether the chain broke short of its end or the MANIFEST was set
	// aside for a chain rebuilt from the file heads.
	SegmentsReplayed      int  `json:"segments_replayed"`
	CheckpointsApplied    int  `json:"checkpoints_applied"`
	CheckpointChainBroken bool `json:"checkpoint_chain_broken,omitempty"`
	ManifestCorrupt       bool `json:"manifest_corrupt,omitempty"`
}

// FellBack reports whether the load fell back past state the directory
// may have held — to the backup base, or short of a broken chain — so
// a BLOB nothing interprets may be all that is left of it.
func (r RecoveryInfo) FellBack() bool { return r.UsedBackup || r.CheckpointChainBroken }

// Eventful reports whether the load did more than read a clean chain:
// it fell back, set a file aside, met a corrupt MANIFEST, replayed or
// cut the journal, or swept BLOBs. tbmserve and tbmctl print a recovery
// line when it did.
func (r RecoveryInfo) Eventful() bool {
	return r.FellBack() || r.ManifestCorrupt || len(r.Quarantined) > 0 ||
		r.JournalRecords > 0 || r.JournalTorn || r.BlobsSwept > 0
}

// Recovery returns what the last Load / OpenJournal recovered.
func (db *DB) Recovery() RecoveryInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.recovery
}

// JournalStats returns the attached journal's counters (zero when no
// journal is attached).
func (db *DB) JournalStats() wal.StatsSnapshot {
	db.mu.RLock()
	j := db.wal
	db.mu.RUnlock()
	if j == nil {
		return wal.StatsSnapshot{}
	}
	return j.Stats()
}

// OpenJournal replays the WAL segments found at dir into the catalog
// (records already captured by the loaded snapshot are skipped via
// their sequence numbers) and then attaches the journal so subsequent
// mutations are logged. Call it after Load or New;
// mutations made before OpenJournal are not journaled.
func (db *DB) OpenJournal(dir string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal != nil {
		return errors.New("catalog: journal already attached")
	}
	if err := db.replayAllLocked(dir); err != nil {
		return err
	}
	return db.attachJournalLocked(dir)
}

// attachJournalLocked opens dir's segmented journal for appending
// without replaying it. Assumes db.mu is held.
func (db *DB) attachJournalLocked(dir string) error {
	j, err := wal.OpenSegmented(dir,
		wal.WithSegmentBatchWindow(db.walBatchWindow),
		wal.WithSegmentBytes(db.walSegmentBytes),
		wal.WithSegmentRecords(db.walSegmentRecords))
	if err != nil {
		return err
	}
	db.wal = j
	db.walDir = filepath.Clean(dir)
	db.wireFsyncLocked()
	return nil
}

// AttachJournal attaches a pre-opened journal (fault-injection tests
// wrap the segmented journal in faultfs). No replay is performed; dir
// names the database directory the journal belongs to, so Save(dir)
// and Checkpoint(dir) know to rotate and compact it.
func (db *DB) AttachJournal(j wal.Appender, dir string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.wal = j
	db.walDir = filepath.Clean(dir)
	db.wireFsyncLocked()
}

// CloseJournal syncs and detaches the journal, and releases the
// directory lock Open took (not one passed in with WithDirLock).
// Mutations made afterwards are not journaled.
func (db *DB) CloseJournal() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.dirLock.Unlock()
	db.dirLock = nil
	if db.wal == nil {
		return nil
	}
	err := db.wal.Sync()
	if cerr := db.wal.Close(); err == nil {
		err = cerr
	}
	db.wal = nil
	// Clear the directory binding too: Save(dir) must not try to
	// rotate or truncate a journal that is no longer attached, and a
	// later AttachJournal for a different directory must not inherit
	// this one.
	db.walDir = ""
	return err
}

// SyncJournal flushes the journal without appending (shutdown path).
func (db *DB) SyncJournal() error {
	db.mu.RLock()
	j := db.wal
	db.mu.RUnlock()
	if j == nil {
		return nil
	}
	return j.Sync()
}

// waitRecord blocks until an enqueued record's group commit resolves,
// recording the journal-append stage latency. Commits call it outside
// db.mu, so group commits from concurrent mutators coalesce in the wal
// layer. nil tickets (no journal) are a no-op.
func (db *DB) waitRecord(t *wal.Ticket) error {
	if t == nil {
		return nil
	}
	start := time.Now()
	err := t.Wait()
	if tel := db.tel.Load(); tel != nil {
		tel.journal.Observe(time.Since(start))
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	return nil
}

// syncBlob flushes a BLOB's bytes when the store supports it, so a
// journaled interpretation never outlives its payload in a crash.
func (db *DB) syncBlob(id blob.ID) error {
	if sy, ok := db.store.(interface{ Sync(blob.ID) error }); ok {
		return sy.Sync(id)
	}
	return nil
}

// replayRun caps the records journal replay commits as one run: one
// edit of the catalog state and one published view. An edit owns the
// treap nodes it made, so a run copies each treap path once, not once
// per record.
const replayRun = 1024

// replayAllLocked replays the WAL segments found at dir in index
// order, committing their records in runs of up to replayRun records,
// then reserves the BLOB high-water mark: the last step of every
// recovery. Each
// record is replayed once: a server checkpoints what a restart
// replayed before it serves, unless the load fell back (see
// cmd/tbmserve). One sequence base is fixed up front for the whole log
// — records already captured by the snapshot/chain are identified
// against that base, not a running maximum: a checkpoint's rotation
// leaves the seqs on either side of the base in different segments,
// and which of them a replay finds depends on where the crash fell;
// and a skip decided against a moving maximum would silently drop
// whatever a damaged log held out of order instead of applying it or
// failing on it. Assumes db.mu is held (or the DB is not yet shared).
func (db *DB) replayAllLocked(dir string) error {
	base := db.seq
	db.replayKeep = map[blob.ID]bool{}
	db.cur.Load().interpVers.ascend(func(id blob.ID, c *interpVerChain) bool {
		if c.live() {
			db.replayKeep[id] = true
		}
		return true
	})
	var run []*walOp
	results, err := wal.ReplaySegments(dir, func(data []byte) error {
		rec, err := db.replayRecordLocked(base, data)
		if rec == nil || err != nil {
			return err
		}
		if run = append(run, rec); len(run) == replayRun {
			err, run = db.commitRunLocked(run), nil
		}
		return err
	})
	if err == nil && len(run) > 0 {
		err = db.commitRunLocked(run)
	}
	if err != nil {
		return err
	}
	db.recovery.SegmentsReplayed = len(results)
	for _, r := range results {
		if !r.Torn {
			continue
		}
		db.recovery.JournalTorn = true
		// Cut the corrupt tail off now, before any journal is attached
		// for appending: the active segment is opened with O_APPEND, so
		// new acknowledged records would otherwise land after the
		// garbage and be dropped at the next replay. A tear in a sealed
		// (non-last) segment can only hold unacknowledged frames — a
		// crash during rotation, before the old segment's final sync —
		// so truncating it loses nothing acknowledged either.
		if err := wal.TruncateAt(wal.SegmentFile(dir, r.Index), r.TornOffset); err != nil {
			return err
		}
	}
	db.store.Reserve(db.nextBlob)
	return nil
}

// replayRecordLocked decodes one journal record for replay, or returns
// nil for a record replay skips — on the header alone, the body never
// decoded: one the snapshot already captured (seq <= base), or one past
// WithReplayCap. Assumes db.mu is held.
func (db *DB) replayRecordLocked(base uint64, data []byte) (*walOp, error) {
	head, _, err := peekOp(data)
	if err != nil {
		return nil, err
	}
	// A capped replay (WithReplayCap) reconstructs the catalog as of a
	// past transaction time, so later records are skipped too — not
	// torn-truncated; the log stays intact.
	if head.Seq <= base || (db.replayCap != 0 && head.Seq > db.replayCap) {
		db.recovery.JournalSkipped++
		return nil, nil
	}
	return decodeOp(data)
}

// commitRunLocked commits a run of replayed records as one edit at
// their recorded seqs and IDs (see applyLocked). Dependency order is
// safe — an object referencing another was only accepted after its
// input was acknowledged, hence the input's frame precedes it in the
// log, and a run validates each record against the ones before it.
// Assumes db.mu is held and no journal is attached, so nothing is
// waited for.
func (db *DB) commitRunLocked(run []*walOp) error {
	if _, err := db.commitLocked(run); err != nil {
		return fmt.Errorf("%w: %w", ErrReplay, err)
	}
	for _, rec := range run {
		if rec.Kind == opInterp {
			db.replayKeep[rec.Blob] = true
		}
	}
	db.recovery.JournalRecords += len(run)
	return nil
}
