package catalog

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/durable"
	"timedmedia/internal/wal"
)

// Durable persistence: the catalog's version chains are encoded into
// catalog.gob (payload format in checkpoint.go and record.go) next to a
// blob.FileStore directory. Payload bytes stay in the BLOBs.
//
// Crash safety (see internal/durable, internal/wal and checkpoint.go):
//
//   - Snapshots are streamed through the chunked container (per-
//     chunk CRC-32C plus a whole-stream trailer), written to a temp
//     file, fsynced, renamed into place, and the directory is fsynced —
//     with the previous good snapshot retained as catalog.gob.bak.
//     Neither Save nor Load ever holds the whole catalog in a buffer.
//   - Load verifies the container; a truncated or corrupt snapshot is
//     quarantined (catalog.gob.corrupt) and the backup is used
//     instead — never a silent partial load.
//   - Mutations between snapshots live in rotating WAL segments
//     (journal.NNNNNN.log); the MANIFEST records which sequence prefix
//     the snapshot and its incremental checkpoint chain already cover.
//     Recovery loads MANIFEST → catalog.gob → checkpoint chain →
//     surviving segments; Save rotates and compacts covered segments.

const snapshotName = "catalog.gob"

// SnapshotFile returns the snapshot path inside a database directory.
func SnapshotFile(dir string) string { return filepath.Join(dir, snapshotName) }

// ErrCorruptSnapshot reports a snapshot that failed integrity
// verification (container checksum or decode).
var ErrCorruptSnapshot = errors.New("catalog: corrupt snapshot")

// ErrSnapshotFormat reports a snapshot or checkpoint file that is
// intact but in a payload format this build does not read. Nothing is
// wrong with the file, so Load neither quarantines it nor falls back
// to the backup on its account.
var ErrSnapshotFormat = errors.New("catalog: unsupported snapshot format")

// Save writes the catalog's object graph and interpretations durably
// to dir/catalog.gob as a streamed, checksummed container: temp-file
// write, fsync, atomic rename with the previous snapshot kept as
// catalog.gob.bak, and a directory fsync. With a journal attached for
// dir, Save is a full checkpoint (checkpointLocked): the WAL rotates at
// the capture boundary, the MANIFEST records the covered sequence (and
// an empty checkpoint chain), and covered segments are compacted. The
// catalog lock is released before any encode or fsync — writers only
// wait for the in-memory capture. The BLOB store persists
// independently (use a FileStore in the same dir).
func (db *DB) Save(dir string) error {
	db.saveMu.Lock()
	defer db.saveMu.Unlock()
	return db.checkpointLocked(dir, true)
}

// observeCheckpoint records one completed checkpoint into telemetry:
// its duration, its mode, and the container bytes it made durable.
func (db *DB) observeCheckpoint(start time.Time, full bool, size int64) {
	t := db.tel.Load()
	if t == nil {
		return
	}
	t.checkpoint.Observe(time.Since(start))
	if full {
		t.ckptFull.Inc()
		t.ckptFullBytes.Add(size)
	} else {
		t.ckptIncr.Inc()
		t.ckptIncrBytes.Add(size)
	}
}

// readSnapshotInto streams one base snapshot file into db, which must
// not be shared yet.
func (db *DB) readSnapshotInto(path string) error {
	s, err := openStream(path)
	if err != nil {
		return err
	}
	defer s.Close()
	return db.applyStream(s)
}

// attemptLoad builds a fresh DB from one snapshot file. Each attempt
// starts from a clean DB so a decode failure cannot leave a partially
// applied primary polluting the backup's load.
func attemptLoad(path string, store blob.Store, opts ...Option) (*DB, error) {
	db := New(store, opts...)
	if err := db.readSnapshotInto(path); err != nil {
		return nil, err
	}
	return db, nil
}

// errCheckpointGap reports a checkpoint chain entry that cannot apply:
// its base sequence is ahead of the loaded state (the covering records
// were compacted under a snapshot generation we no longer have).
var errCheckpointGap = errors.New("catalog: checkpoint chain gap")

// errCheckpointUnreadable reports a chain entry that could not be
// opened or whose header failed before anything was applied.
var errCheckpointUnreadable = errors.New("catalog: checkpoint unreadable")

// applyCheckpointFile loads one incremental checkpoint over the
// current state. Returns (false, nil) when the delta is already
// covered (head.Seq <= db.seq — e.g. a stale chain left by a crash
// between a full Save's snapshot rename and manifest write). A file
// that cannot be opened or whose head does not decode, and a gap, come
// back as the typed sentinels; ErrSnapshotFormat and anything
// applyStream rejects are hard errors — the first because the file is
// healthy and not ours to set aside, the second because the records
// the manifest says this file covers are compacted away, so segment
// replay cannot stand in for it.
func (db *DB) applyCheckpointFile(path string) (bool, error) {
	s, err := openStream(path)
	if errors.Is(err, ErrSnapshotFormat) {
		return false, err
	}
	if err != nil {
		return false, fmt.Errorf("%w: %s: %v", errCheckpointUnreadable, path, err)
	}
	defer s.Close()
	if s.head.Seq <= db.seq {
		return false, nil
	}
	if s.head.FromSeq > db.seq {
		return false, fmt.Errorf("%w: delta starts at seq %d, state at %d", errCheckpointGap, s.head.FromSeq, db.seq)
	}
	if err := db.applyStream(s); err != nil {
		return false, err
	}
	return true, nil
}

// applyCheckpointChain applies the manifest's checkpoint chain in
// order. Returns whether the chain (and therefore the manifest's
// coverage claim) held: a missing, unreadable or gapped entry marks
// the chain broken — recovery then falls back to whatever the
// surviving segments can replay, and the manifest is discarded so the
// next checkpoint is a full Save.
func (db *DB) applyCheckpointChain(dir string, m *wal.Manifest) (bool, error) {
	for _, n := range m.Checkpoints {
		path := CheckpointFile(dir, n)
		applied, err := db.applyCheckpointFile(path)
		switch {
		case err == nil:
			if applied {
				db.recovery.CheckpointsApplied++
			} else {
				db.recovery.CheckpointsSkipped++
			}
		case errors.Is(err, errCheckpointGap), errors.Is(err, errCheckpointUnreadable):
			if !errors.Is(err, fs.ErrNotExist) {
				if q, qerr := durable.Quarantine(path); qerr == nil {
					_ = q
				}
			}
			db.recovery.CheckpointChainBroken = true
			return false, nil
		default:
			return false, err
		}
	}
	return true, nil
}

// Load reads a catalog saved with Save/Checkpoint, resolving
// interpretations against the given store, and replays any WAL found
// next to the snapshot. Options configure the reloaded DB the same
// way they configure New (e.g. WithCacheCapacity).
//
// Recovery sequence: MANIFEST (corrupt one → quarantined, conservative
// full replay) → catalog.gob (corrupt → quarantined, catalog.gob.bak
// used; intact but in another format → ErrSnapshotFormat, file left in
// place) → incremental checkpoint chain (already-covered deltas skip by
// sequence; a gap marks the chain broken) → the index pass, which fails
// on a live object whose BLOB is missing (relinkAllLocked) → WAL
// segments in index order, with a torn tail truncated → the BLOB
// high-water mark reserved in the store. What happened is reported via
// (*DB).Recovery. Load does not attach the journal for writing — call
// OpenJournal to log new mutations.
func Load(dir string, store blob.Store, opts ...Option) (*DB, error) {
	var recovery RecoveryInfo
	man, merr := wal.LoadManifest(dir)
	if merr != nil {
		if q, qerr := durable.Quarantine(wal.ManifestFile(dir)); qerr == nil {
			_ = q
		}
		recovery.ManifestCorrupt = true
		man = nil
	}

	primary := SnapshotFile(dir)
	db, err := attemptLoad(primary, store, opts...)
	switch {
	case err == nil:
	case errors.Is(err, fs.ErrNotExist):
		// Crash between backup rotation and rename: the previous
		// snapshot lives on as .bak.
		bak, bakErr := attemptLoad(primary+".bak", store, opts...)
		if bakErr != nil {
			return nil, err
		}
		db, recovery.UsedBackup = bak, true
	case errors.Is(err, ErrCorruptSnapshot):
		if q, qerr := durable.Quarantine(primary); qerr == nil {
			recovery.Quarantined = q
		}
		bak, bakErr := attemptLoad(primary+".bak", store, opts...)
		if bakErr != nil {
			return nil, fmt.Errorf("%w (backup: %v)", err, bakErr)
		}
		db, recovery.UsedBackup = bak, true
	default:
		return nil, err
	}
	recovery.SnapshotLoaded = true
	db.recovery = recovery

	if man != nil {
		ok, err := db.applyCheckpointChain(dir, man)
		if err != nil {
			return nil, err
		}
		if ok && db.seq > man.CheckpointSeq {
			// A full Save crashed between its snapshot and its MANIFEST.
			// The snapshot holds tombstones no MANIFEST covers, and Open's
			// sweep unlinks their BLOBs, so the feed must refuse resume
			// points below the snapshot's seq, as that MANIFEST would.
			m := *man
			m.CheckpointSeq = db.seq
			man = &m
		}
		if ok {
			db.manifest = man
		}
	}

	// Rebuild the secondary indexes once the whole base + chain state
	// is present — multimedia spans resolve component objects, which
	// may appear anywhere in the stream.
	if err := db.relinkAllLocked(); err != nil {
		return nil, err
	}
	// The loaded state is exactly the manifest's checkpoint: the next
	// delta diffs against it, so what replay applies is in the diff. A
	// fallback, or a state short of the manifest's seq, leaves no base
	// and makes the next checkpoint full.
	if m := db.manifest; m != nil && !recovery.UsedBackup && db.seq == m.CheckpointSeq {
		db.ckptView = db.cur.Load()
	}
	if err := db.replayAllLocked(dir); err != nil {
		return nil, err
	}
	return db, nil
}

// Open loads the catalog at dir when any persistent state exists
// (snapshot, backup or journal), creates a fresh one otherwise, and
// attaches the mutation journal in both cases. This is the one-call
// path the CLIs use. It then sweeps the BLOB files a reopen would not
// open again (replayKeep): a crash left them between a checkpoint and
// its unlinks, or mid-ingest; or, at version retention 1, a BLOB
// registered and collected between two checkpoints reached no
// checkpoint's diff. Best effort, and skipped where registrations may
// be missing rather than gone: under WithReplayCap, or after a fallback
// past lost state (the backup snapshot, a corrupt MANIFEST, a broken
// checkpoint chain), whose BLOBs may be all that is left of it.
func Open(dir string, store blob.Store, opts ...Option) (*DB, error) {
	start := time.Now()
	db, err := open(dir, store, opts...)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	if rec := db.recovery; db.replayCap == 0 && !rec.UsedBackup && !rec.ManifestCorrupt && !rec.CheckpointChainBroken {
		ids, _ := db.store.IDs() // best effort: a failed listing sweeps nothing
		for _, id := range ids {
			if !db.replayKeep[id] && db.store.Delete(id) == nil {
				db.recovery.BlobsSwept++
			}
		}
	}
	db.replayKeep = nil
	db.recovery.OpenMs = time.Since(start).Milliseconds()
	db.mu.Unlock()
	return db, nil
}

func open(dir string, store blob.Store, opts ...Option) (*DB, error) {
	_, errA := os.Stat(SnapshotFile(dir))
	_, errB := os.Stat(SnapshotFile(dir) + ".bak")
	if errA == nil || errB == nil {
		db, err := Load(dir, store, opts...)
		if err != nil {
			return nil, err
		}
		// Load already replayed the journal; just attach it.
		db.mu.Lock()
		err = db.attachJournalLocked(dir)
		db.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return db, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	db := New(store, opts...)
	if err := db.OpenJournal(dir); err != nil {
		return nil, err
	}
	return db, nil
}
