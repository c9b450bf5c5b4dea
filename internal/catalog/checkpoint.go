package catalog

// Incremental checkpoints and bounded recovery.
//
// A full Save rewrites the whole catalog; with a segmented journal
// attached it also rotates the active WAL segment at the capture
// boundary, records the covered sequence number in the MANIFEST, and
// compacts the sealed segments. Checkpoint does the same dance but
// captures only the dirty slice — objects and interpretations touched
// since the last checkpoint plus tombstones for the ones deleted —
// into dir/checkpoint.NNNNNN.ckpt and appends the file to the
// manifest's checkpoint chain. Recovery then reads
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
//	  linger; replay skips their records via sequence numbers.
//
// The delta-skip rule at load (a chain file whose Seq <= the state's
// current sequence adds nothing and is skipped) additionally covers a
// crash between a full Save's snapshot rename and its manifest write:
// the stale chain applies as a no-op over the newer base.

import (
	"bytes"
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
// fully durable but whose WAL cleanup (manifest write, segment
// compaction, legacy journal truncate) failed. The catalog is
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

// catalogStreamPreamble opens the streaming snapshot payload (format
// "catalog stream 1"). Files written before this PR hold a single gob
// of savedCatalog instead; the loader sniffs these 8 bytes to pick.
var catalogStreamPreamble = [8]byte{'T', 'B', 'M', 'C', 'A', 'T', 'S', '1'}

// streamHead leads a streaming snapshot payload. A full snapshot has
// Full=true and FromSeq 0; a delta covers mutations in (FromSeq, Seq].
// Deleted IDs ride in the head (they are tiny); the upserted
// interpretations and objects follow as individual gob values so
// neither encoder nor decoder ever materializes the whole catalog.
type streamHead struct {
	Full       bool
	FromSeq    uint64
	Seq        uint64
	NextID     core.ID
	NumInterps int
	NumObjects int
	DelObjects []core.ID
	DelInterps []blob.ID

	// Version-chain trailer (versions.go): NumVersions self-checking
	// frames (one gob []byte each) follow the objects. HasVersions
	// distinguishes "no versions captured" (legacy stream — Load must
	// reseed chains and raise the floor) from "zero frames". VerFloor is
	// the capture-time version floor. Gob ignores fields the writer did
	// not know, so old streams decode with all three zero.
	HasVersions bool
	VerFloor    uint64
	NumVersions int
}

// snapCapture is the in-memory copy-on-write slice a checkpoint writes
// out: captured under db.mu, encoded with no lock held. savedObject
// deep-copies the parts mutable after publish (sync constraints);
// attribute maps and regions are immutable once an object is visible,
// so they are shared.
type snapCapture struct {
	head    streamHead
	interps []*interp.Exported
	objs    []savedObject
	vers    []verCapture
}

// verCapture is one version-chain entry captured under db.mu; the
// frame bytes (and the gob payload inside them) are rendered later in
// writeCapture, with no catalog lock held.
type verCapture struct {
	kind byte
	id   uint64
	seq  uint64
	name string
	obj  *savedObject     // verFrameObj payload
	exp  *interp.Exported // verFrameInterp payload
}

// renderFrame encodes the capture as a self-checking version frame.
func (vc *verCapture) renderFrame() ([]byte, error) {
	var payload []byte
	switch {
	case vc.obj != nil:
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(vc.obj); err != nil {
			return nil, err
		}
		payload = buf.Bytes()
	case vc.exp != nil:
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(vc.exp); err != nil {
			return nil, err
		}
		payload = buf.Bytes()
	}
	return encodeVersionFrame(vc.kind, vc.id, vc.seq, vc.name, payload), nil
}

// sortVerCaptures fixes the stream order: object frames before interp
// frames, then by id, then by seq — so every chain's entries arrive in
// seq order and a tombstone never precedes the create it closes.
func sortVerCaptures(vers []verCapture) {
	sort.Slice(vers, func(a, b int) bool {
		ga := vers[a].kind >= verFrameInterp
		gb := vers[b].kind >= verFrameInterp
		if ga != gb {
			return !ga
		}
		if vers[a].id != vers[b].id {
			return vers[a].id < vers[b].id
		}
		return vers[a].seq < vers[b].seq
	})
}

// writeCapture streams cap into path as a v2 chunked container
// (tmp + fsync + .bak rotation + rename + dir fsync).
func writeCapture(path string, cap *snapCapture) error {
	err := durable.WriteStreamSnapshot(path, func(w io.Writer) error {
		if _, err := w.Write(catalogStreamPreamble[:]); err != nil {
			return err
		}
		enc := gob.NewEncoder(w)
		if err := enc.Encode(&cap.head); err != nil {
			return err
		}
		for _, e := range cap.interps {
			if err := enc.Encode(e); err != nil {
				return err
			}
		}
		for i := range cap.objs {
			if err := enc.Encode(&cap.objs[i]); err != nil {
				return err
			}
		}
		for i := range cap.vers {
			frame, err := cap.vers[i].renderFrame()
			if err != nil {
				return err
			}
			if err := enc.Encode(frame); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	return nil
}

// captureObjChain appends version captures for one object chain's
// entries newer than fromSeq (fromSeq 0 captures the whole chain).
func captureObjChain(cap *snapCapture, id core.ID, c *verChain, fromSeq uint64) error {
	for _, ent := range c.entries {
		if ent.seq <= fromSeq {
			continue
		}
		if ent.val == nil {
			cap.vers = append(cap.vers, verCapture{kind: verFrameObjTomb, id: uint64(id), seq: ent.seq, name: c.name})
			continue
		}
		so, err := saveObject(ent.val)
		if err != nil {
			return err
		}
		cap.vers = append(cap.vers, verCapture{kind: verFrameObj, id: uint64(id), seq: ent.seq, name: c.name, obj: &so})
	}
	return nil
}

// captureInterpChain appends version captures for one interpretation
// chain. Only the live tail is exported as a create frame: a
// superseded or tombstoned registration's BLOB may already be
// collected, so its history cannot be re-imported after a reload — the
// tombstone frame raises the floor past it instead.
func captureInterpChain(cap *snapCapture, id blob.ID, c *interpVerChain, fromSeq uint64) error {
	tailSeq := c.entries[len(c.entries)-1].seq
	for _, ent := range c.entries {
		if ent.seq <= fromSeq {
			continue
		}
		switch {
		case ent.val == nil:
			cap.vers = append(cap.vers, verCapture{kind: verFrameInterpTomb, id: uint64(id), seq: ent.seq})
		case ent.seq == tailSeq:
			exp, err := interp.Export(ent.val)
			if err != nil {
				return err
			}
			cap.vers = append(cap.vers, verCapture{kind: verFrameInterp, id: uint64(id), seq: ent.seq, exp: exp})
		}
	}
	return nil
}

// applyVersionFrame decodes one version frame into the edit's chains.
// Frames whose history cannot be reconstructed (a tombstone over an
// uncaptured chain, a create whose BLOB is gone) raise the version
// floor instead of failing the load.
func (db *DB) applyVersionFrame(e *viewEdit, frame []byte) error {
	kind, id, seq, name, payload, err := decodeVersionFrame(frame)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	switch kind {
	case verFrameObj:
		var so savedObject
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&so); err != nil {
			return fmt.Errorf("%w: version payload: %v", ErrCorruptSnapshot, err)
		}
		obj, err := objectFromSaved(&so)
		if err != nil {
			return err
		}
		e.appendVersion(obj, seq)
	case verFrameObjTomb:
		if !e.shards[e.shardIndexFor(name)].vers.has(core.ID(id)) {
			// The entries this tombstone closed were not captured (pruned,
			// or a version-less base): nothing below it is answerable.
			e.raiseFloor(seq)
			return nil
		}
		e.extendChain(core.ID(id), name, verEntry{seq: seq})
	case verFrameInterp:
		var exp interp.Exported
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&exp); err != nil {
			return fmt.Errorf("%w: version payload: %v", ErrCorruptSnapshot, err)
		}
		it, err := db.importInterp(&exp)
		if err != nil {
			// The BLOB was collected before the crash: this slice of
			// history cannot be served again.
			e.raiseFloor(seq)
			return nil
		}
		e.appendInterpVersion(it, seq)
	case verFrameInterpTomb:
		e.appendInterpTombstone(blob.ID(id), seq)
	}
	return nil
}

// applyStream decodes a streaming snapshot payload over the current
// state: deletes first (an ID freed by a delete may be re-used by name
// within the same delta), then interpretation and object upserts — all
// into one copy-on-write edit, published as one epoch, so a decode
// failure leaves the loaded state untouched. Decode failures are
// ErrCorruptSnapshot; semantic failures (missing blob, invalid object)
// pass through untyped, matching the v1 loader. Assumes db.mu is held
// or the DB is unshared; does not link indexes (raw inserts —
// relinkAllLocked runs once the whole base + chain state is present).
func (db *DB) applyStream(head *streamHead, dec *gob.Decoder) error {
	e := db.beginEditLocked()
	for _, id := range head.DelObjects {
		if old := e.lookupByID(id); old != nil {
			e.removeRaw(old)
		}
	}
	for _, bid := range head.DelInterps {
		e.delInterp(bid)
	}
	for i := 0; i < head.NumInterps; i++ {
		var exp interp.Exported
		if err := dec.Decode(&exp); err != nil {
			return fmt.Errorf("%w: interp %d/%d: %v", ErrCorruptSnapshot, i, head.NumInterps, err)
		}
		it, err := db.importInterp(&exp)
		if err != nil {
			return err
		}
		e.setInterp(it)
	}
	for i := 0; i < head.NumObjects; i++ {
		var so savedObject
		if err := dec.Decode(&so); err != nil {
			return fmt.Errorf("%w: object %d/%d: %v", ErrCorruptSnapshot, i, head.NumObjects, err)
		}
		obj, err := objectFromSaved(&so)
		if err != nil {
			return err
		}
		if old := e.lookupByID(obj.ID); old != nil {
			e.removeRaw(old)
		}
		e.insertRaw(obj)
	}
	for i := 0; i < head.NumVersions; i++ {
		var frame []byte
		if err := dec.Decode(&frame); err != nil {
			return fmt.Errorf("%w: version frame %d/%d: %v", ErrCorruptSnapshot, i, head.NumVersions, err)
		}
		if err := db.applyVersionFrame(e, frame); err != nil {
			return err
		}
	}
	e.raiseFloor(head.VerFloor)
	if head.HasVersions {
		e.reconcileChains()
	}
	if !head.HasVersions {
		// A pre-versioning snapshot carries no transaction-time history;
		// the load path reseeds trivial chains once the base is complete.
		db.versionsIntact = false
	}
	db.commitEditLocked(e)
	if head.Seq > db.seq {
		db.seq = head.Seq
	}
	if head.NextID > db.nextID {
		db.nextID = head.NextID
	}
	return nil
}

// importInterp resolves an exported interpretation against the store,
// retrying transient failures.
func (db *DB) importInterp(rec *interp.Exported) (*interp.Interpretation, error) {
	var b blob.BLOB
	if err := durable.Retry(storeRetries, storeRetryBase, func() error {
		var e error
		b, e = db.store.Open(rec.BlobID)
		return e
	}); err != nil {
		return nil, fmt.Errorf("catalog: interpretation of missing %v: %w", rec.BlobID, err)
	}
	return interp.Import(rec, b)
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

// rotator is the rotation surface Save and Checkpoint need from the
// attached journal: the segmented journal implements it; legacy
// single-file journals (and fault wrappers around them) don't, and
// fall back to the hold-lock-and-reset protocol.
type rotator interface {
	Rotate() (uint64, error)
	CompactThrough(through uint64) (int, error)
}

// captureDeltaLocked captures the dirty slice as a delta over fromSeq,
// walking each shard's dirty set against the same shard of the current
// epoch (dirty IDs are recorded in the shard their object's name
// hashes to, so each lookup is a single-shard probe). Assumes db.mu is
// held (read side, after the commitGate dance — so no staged objects
// exist and no append is in flight).
func (db *DB) captureDeltaLocked(fromSeq uint64) (*snapCapture, error) {
	cur := db.cur.Load()
	cap := &snapCapture{head: streamHead{FromSeq: fromSeq, Seq: db.seq, NextID: db.nextID}}
	for si := range db.dirty {
		sh := cur.shards[si]
		for id := range db.dirty[si].objs {
			obj, ok := sh.objects.get(id)
			if !ok {
				// Dirty but not visible: deleted after being marked (its
				// tombstone is in the shard's del set), or a merge artifact
				// from a failed attempt. Either way the tombstone governs.
				continue
			}
			so, err := saveObject(obj)
			if err != nil {
				return nil, err
			}
			cap.objs = append(cap.objs, so)
		}
		for id := range db.dirty[si].del {
			cap.head.DelObjects = append(cap.head.DelObjects, id)
		}
	}
	sort.Slice(cap.objs, func(a, b int) bool { return cap.objs[a].ID < cap.objs[b].ID })
	sort.Slice(cap.head.DelObjects, func(a, b int) bool {
		return cap.head.DelObjects[a] < cap.head.DelObjects[b]
	})
	for bid := range db.dirtyInterps {
		it, ok := cur.interps.get(bid)
		if !ok {
			continue
		}
		rec, err := interp.Export(it)
		if err != nil {
			return nil, err
		}
		cap.interps = append(cap.interps, rec)
	}
	sort.Slice(cap.interps, func(a, b int) bool { return cap.interps[a].BlobID < cap.interps[b].BlobID })
	for bid := range db.dirtyDelInterp {
		cap.head.DelInterps = append(cap.head.DelInterps, bid)
	}
	sort.Slice(cap.head.DelInterps, func(a, b int) bool {
		return cap.head.DelInterps[a] < cap.head.DelInterps[b]
	})
	// Version chains ride the same dirty sets: an object (or BLOB) is
	// dirty exactly when its chain gained entries since fromSeq. Deleted
	// IDs keep their chain in the shard (tombstone tail), so both sets
	// are probed.
	for si := range db.dirty {
		sh := cur.shards[si]
		capture := func(id core.ID) error {
			c, ok := sh.vers.get(id)
			if !ok {
				return nil // chain pruned away; the floor covers it
			}
			return captureObjChain(cap, id, c, fromSeq)
		}
		for id := range db.dirty[si].objs {
			if err := capture(id); err != nil {
				return nil, err
			}
		}
		for id := range db.dirty[si].del {
			if err := capture(id); err != nil {
				return nil, err
			}
		}
	}
	captureInterp := func(bid blob.ID) error {
		c, ok := cur.interpVers.get(bid)
		if !ok {
			return nil
		}
		return captureInterpChain(cap, bid, c, fromSeq)
	}
	for bid := range db.dirtyInterps {
		if err := captureInterp(bid); err != nil {
			return nil, err
		}
	}
	for bid := range db.dirtyDelInterp {
		if err := captureInterp(bid); err != nil {
			return nil, err
		}
	}
	sortVerCaptures(cap.vers)
	cap.head.HasVersions = true
	cap.head.VerFloor = cur.verFloor
	cap.head.NumVersions = len(cap.vers)
	cap.head.NumObjects = len(cap.objs)
	cap.head.NumInterps = len(cap.interps)
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
	_, rotatable := db.wal.(rotator)
	cur := db.cur.Load()
	nLive := cur.count + cur.interps.len()
	nDirty := dirtySets{db.dirty, db.dirtyInterps, db.dirtyDelInterp}.count()
	seq := db.seq
	db.mu.RUnlock()

	m := db.manifest
	full := !attached || !rotatable ||
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
// saveMu is held and a rotating journal is attached for dir.
func (db *DB) checkpointDeltaLocked(dir string, m *wal.Manifest) error {
	start := time.Now()
	// Gate dance (see Save): wait out in-flight commits, then capture
	// under the read lock — no append can start while we hold it, so
	// the WAL rotation below lands exactly at the capture boundary.
	db.commitGate.Lock()
	db.mu.RLock()
	db.commitGate.Unlock()
	rot, ok := db.wal.(rotator)
	if !ok || db.walDir != filepath.Clean(dir) {
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
	sealed, err := rot.Rotate()
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
	if err := writeCapture(CheckpointFile(dir, next), cap); err != nil {
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

	keep := make(map[uint64]bool, len(nm.Checkpoints))
	for _, n := range nm.Checkpoints {
		keep[n] = true
	}
	err = db.compactCoveredLocked(dir, rot, sealed, keep)
	if t := db.tel.Load(); t != nil {
		t.checkpoint.Observe(time.Since(start))
		t.ckptIncr.Inc()
	}
	return err
}

// compactCoveredLocked removes everything a durable checkpoint
// supersedes: stale checkpoint files, WAL segments at or below the
// sealed index, and the pre-segmentation journal.log (whose records
// predate any checkpoint's sequence floor). Failures are
// ErrJournalTruncate: the checkpoint itself is durable, only cleanup
// is pending, and a later checkpoint retries it. Assumes saveMu held.
func (db *DB) compactCoveredLocked(dir string, rot rotator, sealed uint64, keep map[uint64]bool) error {
	if err := removeStaleCheckpoints(dir, keep); err != nil {
		return fmt.Errorf("%w: stale checkpoints: %v", ErrJournalTruncate, err)
	}
	if _, err := rot.CompactThrough(sealed); err != nil {
		return fmt.Errorf("%w: %v", ErrJournalTruncate, err)
	}
	if err := os.Remove(JournalFile(dir)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: legacy journal: %v", ErrJournalTruncate, err)
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
