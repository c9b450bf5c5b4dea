package catalog

// Incremental checkpoints and bounded recovery.
//
// A full Save rewrites the whole catalog; with a journal attached it
// also rotates the active WAL segment at the capture
// boundary, records the covered sequence number in the MANIFEST, and
// compacts the sealed segments. Checkpoint does the same dance but
// captures only the dirty slice — the version-chain entries that
// objects and interpretations gained since the last checkpoint,
// tombstones included — into dir/checkpoint.NNNNNN.ckpt and appends
// the file to the manifest's checkpoint chain. Both write the same
// payload, a stream of version records (see verRecord); the live
// catalog is not stored, it is the chains' tails. Recovery then reads
//
//	MANIFEST → catalog.gob → checkpoint chain → surviving segments
//
// so startup cost is bounded by live state plus the uncheckpointed
// tail, not by mutation history.
//
// Locking: Save and Checkpoint hold db.mu only while capturing the
// in-memory slice (copy-on-write of the mutable parts) and rotating
// the WAL; the gob encode and every fsync happen with no catalog lock
// held, so writers make progress while a checkpoint streams to disk.
//
// Crash windows (each boundary has a checkpointHook stage, exercised
// by crash tests):
//
//	after rotate, before the snapshot/delta file  → old manifest, all
//	  segments survive; full conservative replay.
//	after the file, before the manifest           → the new file is an
//	  orphan the manifest never references; replay covers the records.
//	after the manifest, before compaction         → superseded segments
//	  linger; replay skips their records via sequence numbers. Open
//	  sweeps the BLOBs the checkpoint collected but did not unlink.
//
// The delta-skip rule at load (a chain file whose Seq <= the state's
// current sequence adds nothing and is skipped) additionally covers a
// crash between a full Save's snapshot rename and its manifest write:
// the stale chain applies as a no-op over the newer base.

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/durable"
	"timedmedia/internal/interp"
	"timedmedia/internal/wal"
)

// ErrJournalTruncate reports a checkpoint or snapshot whose data is
// fully durable but whose WAL cleanup (manifest write, stale
// checkpoint removal, segment compaction) failed. The catalog is
// consistent and nothing is lost — superseded records are skipped on
// replay via their sequence numbers — but the journal will grow until
// a later checkpoint succeeds, so callers should log and retry with
// backoff rather than treat it as fatal.
var ErrJournalTruncate = errors.New("catalog: snapshot saved, journal truncate failed")

// DefaultMaxCheckpointChain bounds the incremental chain: once this
// many delta files accumulate, the next checkpoint is promoted to a
// full snapshot, collapsing the chain.
const DefaultMaxCheckpointChain = 8

const checkpointPrefix = "checkpoint."
const checkpointSuffix = ".ckpt"

// CheckpointFile returns the path of incremental checkpoint n inside a
// database directory.
func CheckpointFile(dir string, n uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d%s", checkpointPrefix, n, checkpointSuffix))
}

// parseCheckpointIndex extracts n from a checkpoint file name.
func parseCheckpointIndex(name string) (uint64, bool) {
	if len(name) < len(checkpointPrefix)+len(checkpointSuffix) ||
		name[:len(checkpointPrefix)] != checkpointPrefix ||
		name[len(name)-len(checkpointSuffix):] != checkpointSuffix {
		return 0, false
	}
	var n uint64
	mid := name[len(checkpointPrefix) : len(name)-len(checkpointSuffix)]
	if len(mid) < 6 {
		return 0, false
	}
	for _, c := range mid {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	if n == 0 {
		return 0, false
	}
	return n, true
}

// removeStaleCheckpoints deletes every checkpoint file in dir whose
// number is not in keep (nil keep deletes them all). Orphans appear
// when a crash lands between writing a delta and the manifest that
// would reference it; a later full Save retires them.
func removeStaleCheckpoints(dir string, keep map[uint64]bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		n, ok := parseCheckpointIndex(e.Name())
		if !ok || keep[n] {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// catalogStreamPreamble opens a snapshot or checkpoint payload (format
// "catalog stream 3"): the preamble, one gob stream holding a
// streamHead and then head.NumRecords verRecords. Integrity is the
// container's (per-chunk CRC-32C plus a whole-stream trailer); a
// payload that opens with anything else is ErrSnapshotFormat — stream 2
// included, whose interpretation records held one entry per element
// where this one holds runs (interp.Run) and would decode as empty
// tracks.
var catalogStreamPreamble = [8]byte{'T', 'B', 'M', 'C', 'A', 'T', 'S', '3'}

// streamHead leads a snapshot payload, which covers mutations in
// (FromSeq, Seq]: everything up to Seq for a full snapshot (FromSeq
// 0), the slice since the previous checkpoint for a delta. Deleted
// IDs ride in the head (they are tiny) and name what a delta removes
// from the state below it even when retention left no chain to carry
// the tombstone; VerFloor is the capture-time version floor. NextBlob
// (DB.nextBlob) is 0 in a file written before it.
type streamHead struct {
	FromSeq    uint64
	Seq        uint64
	NextID     core.ID
	NextBlob   blob.ID
	DelObjects []core.ID
	DelInterps []blob.ID
	VerFloor   uint64
	NumRecords int
}

// Record kinds. Object records come first in a file, then
// interpretation records; within a kind group records are ordered by
// ID, then seq, so a chain's entries arrive together and in order.
const (
	recObj        = 1 + iota // object version; Obj set
	recObjTomb               // object tombstone
	recInterp                // interpretation registration; Interp set
	recInterpTomb            // interpretation tombstone (BLOB collected)
)

// verRecord is one version-chain entry, the only kind of record a
// payload holds. Live state is not stored: once a file's records are
// applied, an object is live exactly when its chain's tail is not a
// tombstone, and the tail is the live object. Every record goes
// through the file's one gob encoder, so type descriptors are sent
// once per file, not once per record.
type verRecord struct {
	Kind   byte
	ID     uint64 // object ID or BLOB ID
	Seq    uint64
	Name   string // object tombstones only: a version carries its own
	Obj    *savedObject
	Interp *interp.Exported
}

// snapCapture is the in-memory copy-on-write slice a checkpoint writes
// out: captured under db.mu, encoded with no lock held. savedObject
// deep-copies the parts mutable after publish (sync constraints);
// attribute maps and regions are immutable once an object is visible,
// so they are shared.
type snapCapture struct {
	head streamHead
	recs []verRecord
}

// seal fixes the stream order (see the record kinds) and completes the
// head.
func (cap *snapCapture) seal(verFloor uint64) {
	sort.Slice(cap.recs, func(a, b int) bool {
		ra, rb := &cap.recs[a], &cap.recs[b]
		if ga, gb := ra.Kind >= recInterp, rb.Kind >= recInterp; ga != gb {
			return !ga
		}
		if ra.ID != rb.ID {
			return ra.ID < rb.ID
		}
		return ra.Seq < rb.Seq
	})
	sort.Slice(cap.head.DelObjects, func(a, b int) bool { return cap.head.DelObjects[a] < cap.head.DelObjects[b] })
	sort.Slice(cap.head.DelInterps, func(a, b int) bool { return cap.head.DelInterps[a] < cap.head.DelInterps[b] })
	cap.head.VerFloor = verFloor
	cap.head.NumRecords = len(cap.recs)
}

// writeCapture streams cap into path as a chunked container
// (tmp + fsync + .bak rotation + rename + dir fsync) and returns the
// container's size.
func writeCapture(path string, cap *snapCapture) (int64, error) {
	err := durable.WriteStreamSnapshot(path, func(w io.Writer) error {
		if _, err := w.Write(catalogStreamPreamble[:]); err != nil {
			return err
		}
		enc := gob.NewEncoder(w)
		if err := enc.Encode(&cap.head); err != nil {
			return err
		}
		for i := range cap.recs {
			if err := enc.Encode(&cap.recs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("catalog: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("catalog: %w", err)
	}
	return fi.Size(), nil
}

// captureObjChain appends records for one object chain's entries newer
// than fromSeq (fromSeq 0 captures the whole chain).
func captureObjChain(cap *snapCapture, id core.ID, c *verChain, fromSeq uint64) error {
	for _, ent := range c.entries {
		if ent.seq <= fromSeq {
			continue
		}
		rec := verRecord{Kind: recObjTomb, ID: uint64(id), Seq: ent.seq, Name: c.name}
		if ent.val != nil {
			so, err := saveObject(ent.val)
			if err != nil {
				return err
			}
			rec = verRecord{Kind: recObj, ID: uint64(id), Seq: ent.seq, Obj: &so}
		}
		cap.recs = append(cap.recs, rec)
	}
	return nil
}

// captureInterpChain appends records for one interpretation chain.
// Only the live tail is exported as a registration record: a
// superseded or tombstoned registration's BLOB may already be
// collected, so its history cannot be re-imported after a reload — the
// tombstone record raises the floor past it instead.
func captureInterpChain(cap *snapCapture, id blob.ID, c *interpVerChain, fromSeq uint64) error {
	tailSeq := c.tail().seq
	for _, ent := range c.entries {
		if ent.seq <= fromSeq {
			continue
		}
		switch {
		case ent.val == nil:
			cap.recs = append(cap.recs, verRecord{Kind: recInterpTomb, ID: uint64(id), Seq: ent.seq})
		case ent.seq == tailSeq:
			exp, err := interp.Export(ent.val)
			if err != nil {
				return err
			}
			cap.recs = append(cap.recs, verRecord{Kind: recInterp, ID: uint64(id), Seq: ent.seq, Interp: exp})
		}
	}
	return nil
}

// catalogStream is an opened snapshot or chain file, positioned at its
// first record.
type catalogStream struct {
	io.Closer
	br   *bufio.Reader
	dec  *gob.Decoder
	head streamHead
}

// openStream opens the file at path and decodes its head. A missing
// file passes through as fs.ErrNotExist; damage at any layer is
// ErrCorruptSnapshot; a file whose container verifies but whose
// payload is not a TBMCATS3 stream is ErrSnapshotFormat.
func openStream(path string) (*catalogStream, error) {
	r, err := durable.OpenSnapshotReader(path)
	if err != nil {
		switch {
		case errors.Is(err, fs.ErrNotExist):
			return nil, err
		case errors.Is(err, durable.ErrCorrupt):
			return nil, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
		default:
			return nil, fmt.Errorf("catalog: %w", err)
		}
	}
	s := &catalogStream{Closer: r, br: bufio.NewReader(r)}
	var pre [8]byte
	n, _ := io.ReadFull(s.br, pre[:])
	if pre != catalogStreamPreamble {
		// Whether this is another build's healthy file or damage is the
		// container's call: drain it so the trailer is checked.
		_, err := io.Copy(io.Discard, s.br)
		r.Close()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
		}
		return nil, fmt.Errorf("%w: %s: payload opens with %q, want %q", ErrSnapshotFormat, path, pre[:n], catalogStreamPreamble[:])
	}
	s.dec = gob.NewDecoder(s.br)
	if err := s.dec.Decode(&s.head); err != nil {
		r.Close()
		return nil, fmt.Errorf("%w: snapshot head: %v", ErrCorruptSnapshot, err)
	}
	return s, nil
}

// applyStream applies an opened payload over the current state. Head
// deletes go first (they name what the state below loses); then every
// record extends its chain; then each touched object chain's tail
// becomes the live object — all into one copy-on-write edit published
// as one epoch only after the container's trailer has verified, so a
// failure at any point leaves the DB exactly as it was. Anything wrong
// with the bytes or what they describe is ErrCorruptSnapshot; store
// I/O failures pass through untyped so callers don't quarantine a
// healthy file. A registration whose BLOB is gone is skipped: a later
// file holds its tombstone, or relinkAllLocked fails the load. Assumes
// db.mu is held or the DB is unshared; does not link indexes (raw
// inserts — relinkAllLocked runs once the whole base + chain state is
// present).
func (db *DB) applyStream(s *catalogStream) error {
	head := &s.head
	e := db.beginEditLocked()
	for _, id := range head.DelObjects {
		if old := e.lookupByID(id); old != nil {
			e.removeRaw(old)
		}
	}
	for _, bid := range head.DelInterps {
		e.delInterp(bid)
	}
	type chainRef struct {
		id   core.ID
		name string
	}
	var touched []chainRef // object chains this file extends, in record order
	touch := func(id core.ID, name string) {
		if n := len(touched); n == 0 || touched[n-1].id != id {
			touched = append(touched, chainRef{id, name})
		}
	}
	for i := 0; i < head.NumRecords; i++ {
		var rec verRecord
		if err := s.dec.Decode(&rec); err != nil {
			return fmt.Errorf("%w: record %d/%d: %v", ErrCorruptSnapshot, i, head.NumRecords, err)
		}
		switch {
		case rec.Kind == recObj && rec.Obj != nil:
			obj, err := objectFromSaved(rec.Obj)
			if err != nil {
				return fmt.Errorf("%w: record %d: %v", ErrCorruptSnapshot, i, err)
			}
			e.appendVersion(obj, rec.Seq)
			touch(obj.ID, obj.Name)
		case rec.Kind == recObjTomb:
			id := core.ID(rec.ID)
			if e.shards[e.shardIndexFor(rec.Name)].vers.has(id) {
				e.extendChain(id, rec.Name, verEntry{seq: rec.Seq})
			} else {
				// The entries this tombstone closed were not captured
				// (pruned): nothing below it is answerable.
				e.raiseFloor(rec.Seq)
			}
			touch(id, rec.Name)
		case rec.Kind == recInterp && rec.Interp != nil:
			b, err := db.openBlob(rec.Interp.BlobID)
			if errors.Is(err, blob.ErrNotFound) {
				break
			}
			if err != nil {
				return err
			}
			it, err := interp.Import(rec.Interp, b)
			if err != nil {
				return fmt.Errorf("%w: record %d: %v", ErrCorruptSnapshot, i, err)
			}
			e.setInterp(it)
			e.appendInterpVersion(it, rec.Seq)
		case rec.Kind == recInterpTomb:
			e.delInterp(blob.ID(rec.ID))
			e.appendInterpTombstone(blob.ID(rec.ID), rec.Seq)
		default:
			return fmt.Errorf("%w: record %d: kind %d, payload missing or unknown", ErrCorruptSnapshot, i, rec.Kind)
		}
	}
	for _, c := range touched {
		e.settleLive(c.id, c.name)
	}
	e.raiseFloor(head.VerFloor)
	e.reconcileChains()
	// Drain to EOF: a container is only proven complete once its
	// trailer validates.
	if _, err := io.Copy(io.Discard, s.br); err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	db.commitEditLocked(e)
	db.seq = max(db.seq, head.Seq)
	db.nextID = max(db.nextID, head.NextID)
	db.nextBlob = max(db.nextBlob, head.NextBlob)
	return nil
}

// openBlob opens a BLOB an interpretation record names, retrying
// transient store failures.
func (db *DB) openBlob(id blob.ID) (blob.BLOB, error) {
	var b blob.BLOB
	if err := durable.Retry(storeRetries, storeRetryBase, func() error {
		var e error
		b, e = db.store.Open(id)
		return e
	}); err != nil {
		return nil, fmt.Errorf("catalog: interpretation of missing %v: %w", id, err)
	}
	return b, nil
}

// dirtySets is the swapped-out dirty state of one checkpoint attempt:
// one dirtyShard per hash shard plus the global interpretation dirt.
type dirtySets struct {
	shards     []dirtyShard
	interps    map[blob.ID]struct{}
	delInterps map[blob.ID]struct{}
}

func (ds dirtySets) count() int {
	n := len(ds.interps) + len(ds.delInterps)
	for i := range ds.shards {
		n += len(ds.shards[i].objs) + len(ds.shards[i].del)
	}
	return n
}

// takeDirtyLocked swaps the dirty sets for fresh ones and returns the
// captured state. Called under mu.RLock after the commitGate dance:
// no mutator can hold mu's write side, and nothing else touches the
// sets, so the swap is exclusive in practice.
func (db *DB) takeDirtyLocked() dirtySets {
	ds := dirtySets{db.dirty, db.dirtyInterps, db.dirtyDelInterp}
	db.dirty = newDirtyShards(db.nShards)
	db.dirtyInterps = map[blob.ID]struct{}{}
	db.dirtyDelInterp = map[blob.ID]struct{}{}
	return ds
}

// restoreDirty merges a captured dirty state back after a failed
// checkpoint, so the next attempt re-captures it. Union is safe: IDs
// are never re-used, so an entry can't have changed meaning while the
// attempt ran — at worst an ID appears both dirty and deleted, and
// capture resolves that by treating a dirty ID with no visible object
// as covered by its tombstone.
func (db *DB) restoreDirty(ds dirtySets) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for i := range ds.shards {
		for id := range ds.shards[i].objs {
			db.dirty[i].objs[id] = struct{}{}
		}
		for id := range ds.shards[i].del {
			db.dirty[i].del[id] = struct{}{}
		}
	}
	for id := range ds.interps {
		db.dirtyInterps[id] = struct{}{}
	}
	for id := range ds.delInterps {
		db.dirtyDelInterp[id] = struct{}{}
	}
}

// hook fires the checkpoint test hook. Must be called with no locks
// held.
func (db *DB) hook(stage string) {
	if db.checkpointHook != nil {
		db.checkpointHook(stage)
	}
}

// captureDeltaLocked captures the dirty slice as a delta over fromSeq.
// Version chains ride the dirty sets: an object (or BLOB) is dirty
// exactly when its chain gained entries since fromSeq, and a deleted ID
// keeps its chain in the shard (tombstone tail) until retention drops
// it, so both sets are probed — each in the shard its object's name
// hashes to, where it was recorded. A dirty ID with no chain left was
// pruned away; the head's delete list and the floor cover it. Assumes
// db.mu is held (read side, after the commitGate dance — so no staged
// objects exist and no append is in flight).
func (db *DB) captureDeltaLocked(fromSeq uint64) (*snapCapture, error) {
	cur := db.cur.Load()
	cap := &snapCapture{head: streamHead{FromSeq: fromSeq, Seq: db.seq, NextID: db.nextID, NextBlob: db.nextBlob}}
	for si := range db.dirty {
		vers := cur.shards[si].vers
		for _, ids := range []map[core.ID]struct{}{db.dirty[si].objs, db.dirty[si].del} {
			for id := range ids {
				if c, ok := vers.get(id); ok {
					if err := captureObjChain(cap, id, c, fromSeq); err != nil {
						return nil, err
					}
				}
			}
		}
		for id := range db.dirty[si].del {
			cap.head.DelObjects = append(cap.head.DelObjects, id)
		}
	}
	for _, bids := range []map[blob.ID]struct{}{db.dirtyInterps, db.dirtyDelInterp} {
		for bid := range bids {
			if c, ok := cur.interpVers.get(bid); ok {
				if err := captureInterpChain(cap, bid, c, fromSeq); err != nil {
					return nil, err
				}
			}
		}
	}
	for bid := range db.dirtyDelInterp {
		cap.head.DelInterps = append(cap.head.DelInterps, bid)
	}
	cap.seal(cur.verFloor)
	return cap, nil
}

// Checkpoint makes the catalog's durable state current with bounded
// work: an incremental delta of the dirty slice when one pays off, a
// full Save otherwise (no manifest yet, chain at its bound, or most of
// the catalog dirty anyway). A quiescent catalog checkpoints to a
// no-op. Requires the same preconditions as Save; safe to call
// concurrently with mutations and with Save (saveMu serializes).
func (db *DB) Checkpoint(dir string) error {
	db.saveMu.Lock()
	defer db.saveMu.Unlock()

	db.mu.RLock()
	attached := db.wal != nil && db.walDir == filepath.Clean(dir)
	cur := db.cur.Load()
	nLive := cur.count + cur.interps.len()
	nDirty := dirtySets{db.dirty, db.dirtyInterps, db.dirtyDelInterp}.count()
	seq := db.seq
	db.mu.RUnlock()

	m := db.manifest
	full := !attached ||
		m == nil ||
		len(m.Checkpoints) >= DefaultMaxCheckpointChain ||
		nDirty*2 >= nLive
	if full {
		return db.saveLocked(dir)
	}
	if nDirty == 0 && seq == m.CheckpointSeq {
		return nil // nothing since the last checkpoint
	}
	return db.checkpointDeltaLocked(dir, m)
}

// checkpointDeltaLocked writes one incremental checkpoint. Assumes
// saveMu is held and a journal is attached for dir.
func (db *DB) checkpointDeltaLocked(dir string, m *wal.Manifest) error {
	start := time.Now()
	// Gate dance (see Save): wait out in-flight commits, then capture
	// under the read lock — no append can start while we hold it, so
	// the WAL rotation below lands exactly at the capture boundary.
	db.commitGate.Lock()
	db.mu.RLock()
	db.commitGate.Unlock()
	j := db.wal
	if j == nil || db.walDir != filepath.Clean(dir) {
		// The journal changed between the policy check and the gate
		// (CloseJournal or AttachJournal raced us): fall back.
		db.mu.RUnlock()
		return db.saveLocked(dir)
	}
	cap, err := db.captureDeltaLocked(m.CheckpointSeq)
	if err != nil {
		db.mu.RUnlock()
		return err
	}
	sealed, err := j.Rotate()
	if err != nil {
		db.mu.RUnlock()
		return fmt.Errorf("catalog: checkpoint rotate: %w", err)
	}
	dirty := db.takeDirtyLocked()
	db.mu.RUnlock()
	db.hook("rotated")

	next := uint64(1)
	if n := len(m.Checkpoints); n > 0 {
		next = m.Checkpoints[n-1] + 1
	}
	size, err := writeCapture(CheckpointFile(dir, next), cap)
	if err != nil {
		db.restoreDirty(dirty)
		return err
	}
	db.hook("written")

	nm := &wal.Manifest{
		CheckpointSeq: cap.head.Seq,
		Checkpoints:   append(append([]uint64(nil), m.Checkpoints...), next),
		OldestSegment: sealed + 1,
	}
	if err := wal.WriteManifest(dir, nm); err != nil {
		// The delta file exists but nothing references it: an orphan the
		// next attempt overwrites. Restore the dirty slice so it does.
		db.restoreDirty(dirty)
		return fmt.Errorf("%w: manifest: %v", ErrJournalTruncate, err)
	}
	db.manifest = nm
	db.hook("manifest")
	db.unlinkCollected(dirty.delInterps)

	keep := make(map[uint64]bool, len(nm.Checkpoints))
	for _, n := range nm.Checkpoints {
		keep[n] = true
	}
	err = db.compactCoveredLocked(dir, j, sealed, keep)
	db.observeCheckpoint(start, false, size)
	return err
}

// compactCoveredLocked removes everything a durable checkpoint
// supersedes: stale checkpoint files and WAL segments at or below the
// sealed index. Failures are ErrJournalTruncate: the checkpoint itself
// is durable, only cleanup is pending, and a later checkpoint retries
// it. Assumes saveMu held.
func (db *DB) compactCoveredLocked(dir string, j wal.Appender, sealed uint64, keep map[uint64]bool) error {
	if err := removeStaleCheckpoints(dir, keep); err != nil {
		return fmt.Errorf("%w: stale checkpoints: %v", ErrJournalTruncate, err)
	}
	if _, err := j.CompactThrough(sealed); err != nil {
		return fmt.Errorf("%w: %v", ErrJournalTruncate, err)
	}
	db.hook("compacted")
	return nil
}

// Manifest returns the last durable manifest Save/Checkpoint/Load
// established for the attached directory (nil before the first
// checkpoint).
func (db *DB) Manifest() *wal.Manifest {
	db.saveMu.Lock()
	defer db.saveMu.Unlock()
	return db.manifest
}

// StartCheckpointer runs Checkpoint(dir) every interval until the
// returned stop function is called (stop waits for an in-flight
// checkpoint to finish). Errors are reported to onErr (may be nil).
// ErrJournalTruncate — checkpoint durable, WAL cleanup failed — backs
// the next attempt off exponentially (bounded at 8× the interval)
// instead of hammering a stuck filesystem; any success resets the
// cadence.
func (db *DB) StartCheckpointer(dir string, every time.Duration, onErr func(error)) (stop func()) {
	if every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		delay := every
		timer := time.NewTimer(delay)
		defer timer.Stop()
		for {
			select {
			case <-done:
				return
			case <-timer.C:
			}
			err := db.Checkpoint(dir)
			switch {
			case err == nil:
				delay = every
			case errors.Is(err, ErrJournalTruncate):
				delay = min(delay*2, 8*every)
				if onErr != nil {
					onErr(fmt.Errorf("%w (retrying in %v)", err, delay))
				}
			default:
				delay = every
				if onErr != nil {
					onErr(err)
				}
			}
			timer.Reset(delay)
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
