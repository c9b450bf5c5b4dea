package catalog

import (
	"cmp"
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

// Durable persistence: the catalog's version chains are encoded
// (payload format in checkpoint.go and record.go) into one kind of
// file, dir/checkpoint.NNNNNN.ckpt, next to a blob.FileStore directory;
// payload bytes stay in the BLOBs. A file covers the mutations in
// (FromSeq, Seq]: a base (FromSeq 0) is a full capture and starts a
// chain, a delta extends the one before it. The MANIFEST names the
// chain, base first, and is the one root recovery starts from.
//
// Crash safety (see internal/durable, internal/wal and checkpoint.go):
//
//   - Files stream through the chunked container (per-chunk CRC-32C
//     plus a whole-stream trailer) into a temp file, which is fsynced
//     and renamed into place, and the directory fsynced; the MANIFEST
//     naming a file is written after it. Nothing holds the whole
//     catalog in a buffer.
//   - Once a new base's MANIFEST is durable, the previous chain's base
//     stays as the backup and every other file off the chain goes: a
//     directory holds at most two full captures.
//   - Load verifies every file and quarantines a damaged one
//     (path.corrupt) — never a silent partial load. A damaged or
//     missing MANIFEST, or a damaged base, sends Load to the chain
//     rebuilt from the file heads; a damaged delta ends the chain, and
//     the WAL segments (journal.NNNNNN.log) replay what they can.

// ErrCorruptSnapshot reports a checkpoint file that failed integrity
// verification (container checksum or decode).
var ErrCorruptSnapshot = errors.New("catalog: corrupt snapshot")

// ErrSnapshotFormat reports a directory or checkpoint file that is
// intact but in a format this build does not read. Nothing is wrong
// with the file, so Load neither quarantines it nor falls back past it.
var ErrSnapshotFormat = errors.New("catalog: unsupported snapshot format")

// refuseEarlierLayout fails with ErrSnapshotFormat when dir holds the
// snapshot file of an earlier build, or its backup: there is no
// in-place upgrade.
func refuseEarlierLayout(dir string) error {
	for _, name := range []string{"catalog.gob", "catalog.gob.bak"} {
		if _, err := os.Lstat(filepath.Join(dir, name)); err == nil {
			return fmt.Errorf("%w: %s is an earlier build's snapshot; this build reads checkpoint chains only", ErrSnapshotFormat, filepath.Join(dir, name))
		}
	}
	return nil
}

// Exists reports whether dir holds catalog state for Open to load: a
// MANIFEST, a checkpoint file, or an earlier build's snapshot (which
// Open refuses).
func Exists(dir string) bool {
	nums, _ := listCheckpoints(dir)
	_, err := os.Lstat(wal.ManifestFile(dir))
	return len(nums) > 0 || err == nil || refuseEarlierLayout(dir) != nil
}

// OpenChain opens the files of the chain the catalog's state stands on
// in dir, base first, and returns them with the seq the chain ends at.
// It holds saveMu while it opens them: a checkpoint that unlinks one
// later leaves it readable. Only a catalog with no chain in dir yet
// checkpoints first. The caller closes the files.
func (db *DB) OpenChain(dir string) ([]*os.File, uint64, error) {
	db.saveMu.Lock()
	defer db.saveMu.Unlock()
	m := db.manifest
	if m == nil {
		err := db.checkpointLocked(dir, false)
		if err == nil || errors.Is(err, ErrJournalTruncate) {
			m, err = wal.LoadManifest(dir)
		}
		if m == nil {
			return nil, 0, fmt.Errorf("catalog: no chain in %s (%v)", dir, err)
		}
	}
	files := make([]*os.File, 0, len(m.Checkpoints))
	for _, n := range m.Checkpoints {
		f, err := os.Open(CheckpointFile(dir, n))
		if err != nil {
			for _, f := range files {
				f.Close()
			}
			return nil, 0, fmt.Errorf("catalog: %w", err)
		}
		files = append(files, f)
	}
	return files, m.CheckpointSeq, nil
}

// Save writes the catalog durably as a new base — a full capture under
// the next checkpoint file number — and a MANIFEST naming it as a chain
// of its own (checkpointLocked). With a journal attached for dir, the
// WAL rotates at the capture boundary and covered segments are
// compacted. Writers only wait for the in-memory capture, never for an
// encode or fsync. The BLOB store persists independently (use a
// FileStore in the same dir).
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

// setAside quarantines a file that failed verification and records
// where it went.
func (r *RecoveryInfo) setAside(path string) {
	if q, _ := durable.Quarantine(path); q != "" {
		r.Quarantined = append(r.Quarantined, q)
	}
}

// applyFile applies the chain file at path when it starts at the
// state's seq — a fresh DB's is 0, so only a base applies to it — and
// reports whether it did.
func (db *DB) applyFile(path string) (bool, error) {
	s, err := openStream(path)
	if err != nil {
		return false, err
	}
	defer s.Close()
	if s.head.FromSeq != db.seq {
		return false, nil
	}
	return true, db.applyStream(s)
}

// loadFrom loads the chain files nums into a fresh DB: nums[0] must be
// a base, and each later file applies from the state's seq. In the
// MANIFEST's chain (strict) a delta that does not start there breaks
// the chain; in one rebuilt from the file heads it belongs to another
// chain and is passed over. A missing or damaged delta (quarantined)
// breaks the chain too, and recovery goes on with what the segments
// hold. No DB comes back when nums[0] is not a base that reads clean:
// a damaged one is set aside and its error returned. ErrSnapshotFormat
// and store failures are hard errors: the file is healthy and not ours
// to set aside.
func loadFrom(dir string, nums []uint64, strict bool, store blob.Store, opts []Option, rec *RecoveryInfo) (*DB, []uint64, error) {
	db := New(store, opts...)
	var chain []uint64
	for i, n := range nums {
		path := CheckpointFile(dir, n)
		ok, err := db.applyFile(path)
		switch {
		case ok && err == nil:
			chain = append(chain, n)
			continue
		case err == nil && i > 0 && !strict:
			continue
		case err == nil, errors.Is(err, fs.ErrNotExist):
			err = nil
		case errors.Is(err, ErrCorruptSnapshot):
			rec.setAside(path)
		default:
			return nil, nil, err
		}
		if i == 0 {
			return nil, nil, err
		}
		rec.CheckpointChainBroken = true
		break
	}
	rec.CheckpointsApplied = len(chain) - 1
	return db, chain, nil
}

// loadChain loads the chain man names or, when there is no MANIFEST or
// its base does not read clean, the chain rebuilt from the file heads:
// the newest base that reads clean, then the files numbered above it.
// The number rule keeps a delta of a chain an earlier fallback
// abandoned, whose seqs may have been reused since, from applying. A
// base older than the MANIFEST's, or than a file set aside on the way,
// is the backup (UsedBackup). With no chain at all, the DB is empty.
func loadChain(dir string, man *wal.Manifest, store blob.Store, opts []Option, rec *RecoveryInfo) (*DB, []uint64, error) {
	var named uint64
	var cause error // why the first base was set aside
	// done reports whether an attempt settles the load — a DB, or a
	// hard error; past a damaged base the search goes on.
	done := func(db *DB, err error) bool {
		if errors.Is(err, ErrCorruptSnapshot) {
			cause = cmp.Or(cause, err)
			return false
		}
		return db != nil || err != nil
	}
	if man != nil && len(man.Checkpoints) > 0 {
		named = man.Checkpoints[0]
		if db, chain, err := loadFrom(dir, man.Checkpoints, true, store, opts, rec); done(db, err) {
			return db, chain, err
		}
	}
	nums, err := listCheckpoints(dir)
	if err != nil {
		return nil, nil, err
	}
	lost := false
	for i := len(nums) - 1; i >= 0; i-- {
		db, chain, err := loadFrom(dir, nums[i:], false, store, opts, rec)
		if done(db, err) {
			rec.UsedBackup = nums[i] < named || lost
			return db, chain, err
		}
		lost = lost || err != nil
	}
	if named == 0 && len(nums) == 0 {
		return New(store, opts...), nil, nil
	}
	if cause == nil {
		cause = fmt.Errorf("%w: no base checkpoint", ErrCorruptSnapshot)
	}
	return nil, nil, fmt.Errorf("%w; no other base in %s reads clean", cause, dir)
}

// Load reads the catalog a directory's checkpoint chain holds,
// resolving interpretations against the given store, and replays the
// WAL found next to it; a directory with no chain loads as the empty
// catalog plus its journal. Options configure the reloaded DB as they
// configure New. The sequence: an earlier build's snapshot file →
// ErrSnapshotFormat, nothing touched; MANIFEST → base → deltas
// (loadChain; a file intact but in another format is ErrSnapshotFormat,
// left in place) → the index pass, which fails on a live object whose
// BLOB is missing (relinkAllLocked) → WAL segments in index order, a
// torn tail truncated → the BLOB high-water mark reserved in the store.
// (*DB).Recovery reports what happened. Load does not attach the
// journal for writing — call OpenJournal to log new mutations.
func Load(dir string, store blob.Store, opts ...Option) (*DB, error) {
	if err := refuseEarlierLayout(dir); err != nil {
		return nil, err
	}
	var rec RecoveryInfo
	man, err := wal.LoadManifest(dir)
	if err != nil {
		rec.setAside(wal.ManifestFile(dir))
		rec.ManifestCorrupt = true
	}
	db, chain, err := loadChain(dir, man, store, opts, &rec)
	if err != nil {
		return nil, err
	}
	if chain != nil {
		// The chain loaded is the one the next checkpoint extends, and
		// its seq the floor below which the feed refuses to resume: Open's
		// sweep unlinks the BLOBs of the tombstones it holds.
		rec.SnapshotLoaded = true
		db.manifest = &wal.Manifest{CheckpointSeq: db.seq, Checkpoints: chain}
		if t := db.tel.Load(); t != nil {
			t.chainFiles.Set(int64(len(chain)))
		}
	}
	db.recovery = rec

	// Rebuild the secondary indexes once the whole base + chain state
	// is present — multimedia spans resolve component objects, which
	// may appear anywhere in the stream.
	if err := db.relinkAllLocked(); err != nil {
		return nil, err
	}
	// The loaded state is exactly the chain's: the next delta diffs
	// against it, so what replay applies is in the diff. A fallback past
	// lost state leaves no base and makes the next checkpoint full.
	if db.manifest != nil && !rec.FellBack() {
		db.ckptView = db.cur.Load()
	}
	if err := db.replayAllLocked(dir); err != nil {
		return nil, err
	}
	return db, nil
}

// Open loads the catalog at dir (Load: an empty one when dir holds no
// state), creating dir if need be, and attaches the mutation journal.
// This is the one-call path the CLIs use. It then sweeps the BLOB files
// a reopen would not open again (replayKeep): a crash left them between
// a checkpoint and its unlinks, or mid-ingest; or, at version retention
// 1, a BLOB registered and collected between two checkpoints reached no
// checkpoint's diff. Best effort, and skipped where registrations may
// be missing rather than gone: under WithReplayCap, or after a fallback
// past lost state (the backup base, a broken checkpoint chain), whose
// BLOBs may be all that is left of it.
//
// One process owns a directory: Open takes durable.LockDir first and
// holds it until CloseJournal, unless the caller holds it already
// (WithDirLock). A second Open, from this process or another, fails
// with durable.ErrLocked, naming the holder's PID, before it reads,
// creates or removes anything. An Open that fails removes the lock
// file if it made it.
func Open(dir string, store blob.Store, opts ...Option) (*DB, error) {
	start := time.Now()
	// An earlier build's directory is refused before the lock file is
	// created in it: the refusal leaves every file as it was.
	if err := refuseEarlierLayout(dir); err != nil {
		return nil, err
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	lock, release := cfg.dirLock, func() {}
	if lock == nil {
		_, noLockFile := os.Lstat(filepath.Join(dir, durable.LockFileName))
		l, err := durable.LockDir(dir)
		if err != nil {
			return nil, err
		}
		lock, release = l, func() {
			if errors.Is(noLockFile, fs.ErrNotExist) {
				os.Remove(l.Path()) // still held: no other Open can have it
			}
			l.Unlock()
		}
	} else if lock.Path() != filepath.Join(dir, durable.LockFileName) {
		return nil, fmt.Errorf("catalog: open %s under the lock %s", dir, lock.Path())
	}
	fail := func(err error) (*DB, error) {
		release()
		return nil, err
	}
	db, err := Load(dir, store, opts...)
	if err != nil {
		return fail(err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.attachJournalLocked(dir); err != nil {
		return fail(err)
	}
	if cfg.dirLock == nil {
		db.dirLock = lock
	}
	if db.replayCap == 0 && !db.recovery.FellBack() {
		ids, _ := db.store.IDs() // best effort: a failed listing sweeps nothing
		for _, id := range ids {
			if !db.replayKeep[id] && db.store.Delete(id) == nil {
				db.recovery.BlobsSwept++
			}
		}
	}
	db.replayKeep = nil
	db.recovery.OpenMs = time.Since(start).Milliseconds()
	return db, nil
}
