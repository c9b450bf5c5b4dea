package catalog

// Incremental checkpoints and bounded recovery.
//
// A checkpoint is the diff of two pinned views: the one the last
// durable checkpoint captured (DB.ckptView) and the current one. The
// treaps share every subtree nothing touched since, so the diff
// (pmap.go) costs O(changes · log n). A delta holds the entries newer
// than the manifest's CheckpointSeq of every chain that differs, its
// head what was deleted or collected since, and joins the manifest's
// chain as dir/checkpoint.NNNNNN.ckpt; a full snapshot (Save, or a
// promoted Checkpoint) is the same capture against the empty catalog,
// into catalog.gob. Both run one write sequence (checkpointLocked) and
// write one payload, a stream of version records (see verRecord): the
// live catalog is the chains' tails. A failed attempt leaves ckptView
// and the manifest as they were, so the next one covers its slice.
// Recovery reads
//
//	MANIFEST → catalog.gob → checkpoint chain → surviving segments
//
// so startup cost is bounded by live state plus the uncheckpointed
// tail, not by mutation history. db.mu is held only to pin a view
// and rotate the WAL; diff, capture, encode and fsyncs run unlocked.
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
	"slices"
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
func removeStaleCheckpoints(dir string, keep []uint64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		n, ok := parseCheckpointIndex(e.Name())
		if !ok || slices.Contains(keep, n) {
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

// snapCapture is the in-memory slice of a pinned view a checkpoint
// writes out (capture).
// savedObject deep-copies the parts mutable after publish (sync
// constraints); attribute maps and regions are immutable once an
// object is visible, so they are shared.
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

// applyStream applies an opened payload over the current state: every
// record extends its chain, then the head's deletes drop what no record
// closed — all into one copy-on-write edit published as one epoch only
// after the container's trailer has verified, so a failure at any
// point leaves the DB exactly as it was. The live catalog is the
// chains' tails, so nothing else is settled. Anything wrong with the
// bytes or what they describe is ErrCorruptSnapshot; store I/O
// failures pass through untyped so callers don't quarantine a healthy
// file. A registration whose BLOB is gone is skipped: a later file
// holds its tombstone, or relinkAllLocked fails the load. Assumes
// db.mu is held or the DB is unshared; does not link indexes
// (relinkAllLocked runs once the whole base + chain state is present).
func (db *DB) applyStream(s *catalogStream) error {
	head := &s.head
	e := db.beginEditLocked()
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
		case rec.Kind == recObjTomb:
			id := core.ID(rec.ID)
			if e.shards[e.shardIndexFor(rec.Name)].vers.has(id) {
				e.extendChain(id, rec.Name, verEntry{seq: rec.Seq})
			} else {
				// The entries this tombstone closed were not captured
				// (pruned): nothing below it is answerable.
				e.raiseFloor(rec.Seq)
			}
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
			e.appendInterpVersion(it, rec.Seq)
		case rec.Kind == recInterpTomb:
			e.appendInterpTombstone(blob.ID(rec.ID), rec.Seq)
		default:
			return fmt.Errorf("%w: record %d: kind %d, payload missing or unknown", ErrCorruptSnapshot, i, rec.Kind)
		}
	}
	// A delete or collection whose chain retention dropped carries no
	// tombstone record: the chain below, still ending live, goes (the
	// head's floor already covers the drop), or it would stay live and
	// an as-of read would resurrect it.
	for _, id := range head.DelObjects {
		if o := e.lookupByID(id); o != nil {
			e.dropChain(id, o.Name)
		}
	}
	for _, bid := range head.DelInterps {
		if c, _ := e.interpVers.get(bid); c.live() {
			e.setInterpChain(bid, nil)
		}
	}
	e.raiseFloor(head.VerFloor)
	// Drain to EOF: a container is only proven complete once its
	// trailer validates.
	if _, err := io.Copy(io.Discard, s.br); err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	db.commitEditLocked(e, head.Seq)
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

// hook fires the checkpoint test hook. Must be called with no locks
// held.
func (db *DB) hook(stage string) {
	if db.checkpointHook != nil {
		db.checkpointHook(stage)
	}
}

// Reasons a Checkpoint is promoted to a full snapshot, exported as
// tbm_checkpoint_promotions_total{reason="..."}.
const (
	promoteNoJournal  = "no_journal"  // no journal attached for dir
	promoteNoBase     = "no_base"     // no manifest, or no retained view to diff
	promoteChainBound = "chain_bound" // DefaultMaxCheckpointChain deltas already
	promoteMajority   = "majority"    // half the live set or more changed
)

var promotionReasons = []string{promoteNoJournal, promoteNoBase, promoteChainBound, promoteMajority}

// chainChanges lists the chains two views bind differently, each as
// the newer view's chain: nil where retention dropped it.
type chainChanges struct {
	objs    []change[core.ID, *verChain]
	interps []change[blob.ID, *interpVerChain]
}

type change[K, C any] struct {
	id K
	c  C
}

// diffViews walks base against cur once. A nil base is the empty
// catalog: every retained chain is listed.
func diffViews(base, cur *View) *chainChanges {
	ch := &chainChanges{}
	empty, fromInterps := &shardState{}, tmap[blob.ID, *interpVerChain]{}
	if base != nil {
		fromInterps = base.interpVers
	} else {
		ch.objs, ch.interps = make([]change[core.ID, *verChain], 0, cur.count), make([]change[blob.ID, *interpVerChain], 0, cur.interpVers.len())
	}
	for si, sh := range cur.shards {
		from := empty
		if base != nil {
			from = base.shards[si]
		}
		diff(from.vers, sh.vers, func(id core.ID, _, c *verChain) {
			ch.objs = append(ch.objs, change[core.ID, *verChain]{id, c})
		})
	}
	diff(fromInterps, cur.interpVers, func(id blob.ID, _, c *interpVerChain) {
		ch.interps = append(ch.interps, change[blob.ID, *interpVerChain]{id, c})
	})
	return ch
}

// collected lists the BLOBs whose interpretation chain now ends in a
// tombstone or is gone, dropped by retention.
func (ch *chainChanges) collected() []blob.ID {
	var out []blob.ID
	for _, x := range ch.interps {
		if x.c == nil || x.c.tail().val == nil {
			out = append(out, x.id)
		}
	}
	return out
}

// capture records the entries newer than head.FromSeq of every chain
// in ch under head. With ch taken against the empty catalog that is
// every retained chain whole: a full snapshot (FromSeq 0, no delete
// lists). With ch taken against the last checkpoint's view it is a
// delta, whose head also names the objects deleted and the BLOBs
// collected since, whether a tombstone still closes their chain or
// retention dropped it.
func capture(ch *chainChanges, cur *View, head streamHead, delta bool) (*snapCapture, error) {
	cap := &snapCapture{head: head}
	for _, x := range ch.objs {
		if x.c != nil {
			if err := captureObjChain(cap, x.id, x.c, head.FromSeq); err != nil {
				return nil, err
			}
		}
		if delta && (x.c == nil || x.c.tail().val == nil) {
			cap.head.DelObjects = append(cap.head.DelObjects, x.id)
		}
	}
	for _, x := range ch.interps {
		if x.c != nil {
			if err := captureInterpChain(cap, x.id, x.c, head.FromSeq); err != nil {
				return nil, err
			}
		}
	}
	if delta {
		cap.head.DelInterps = ch.collected()
	}
	cap.seal(cur.verFloor)
	return cap, nil
}

// Checkpoint makes the catalog's durable state current with bounded
// work: an incremental delta when one pays off, a full snapshot
// otherwise (no journal for dir, no manifest or checkpoint view to
// diff against, chain at its bound, or most of the catalog changed
// anyway — counted in tbm_checkpoint_promotions_total by reason). A
// quiescent catalog checkpoints to a no-op. Requires the same
// preconditions as Save; safe to call concurrently with mutations and
// with Save (saveMu serializes).
func (db *DB) Checkpoint(dir string) error {
	db.saveMu.Lock()
	defer db.saveMu.Unlock()
	return db.checkpointLocked(dir, false)
}

// checkpointLocked is the one write sequence behind Save (full) and
// Checkpoint: pin → rotate → capture → write → MANIFEST → unlink →
// compact, each boundary a checkpointHook stage. Once the commits are
// settled the view is every record up to db.seq, so the rotation lands
// there; the view is immutable, so writers commit while it is diffed
// and captured. Assumes saveMu is held.
func (db *DB) checkpointLocked(dir string, full bool) error {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	db.mu.Lock()
	db.settleLocked(nil)
	cur, base, m, j := db.cur.Load(), db.ckptView, db.manifest, db.wal
	head := streamHead{Seq: db.seq, NextID: db.nextID, NextBlob: db.nextBlob}
	attached := j != nil && db.walDir == filepath.Clean(dir)
	if !full && attached && m != nil && base != nil && head.Seq == m.CheckpointSeq {
		db.mu.Unlock()
		return nil // nothing since the last checkpoint
	}
	var sealed uint64
	var err error
	if attached {
		sealed, err = j.Rotate()
	}
	db.mu.Unlock()
	if err != nil {
		return fmt.Errorf("catalog: checkpoint rotate: %w", err)
	}
	if attached {
		db.hook("rotated")
	}

	since := diffViews(base, cur)
	if !full {
		var reason string
		switch {
		case !attached:
			reason = promoteNoJournal
		case m == nil || base == nil:
			reason = promoteNoBase
		case len(m.Checkpoints) >= DefaultMaxCheckpointChain:
			reason = promoteChainBound
		case (len(since.objs)+len(since.interps))*2 >= cur.count+cur.interpCount:
			reason = promoteMajority
		}
		if t := db.tel.Load(); t != nil && reason != "" {
			t.promotions[reason].Inc()
		}
		full = reason != ""
	}
	// A full snapshot walks again, against the empty catalog, unless
	// there was no base to begin with.
	all := since
	if !full {
		head.FromSeq = m.CheckpointSeq
	} else if base != nil {
		all = diffViews(nil, cur)
	}
	db.hook("capture")
	cap, err := capture(all, cur, head, !full)
	if err != nil {
		return err
	}
	gone := since.collected()
	if !attached {
		// No journal for dir: snapshot only, nothing to compact and no
		// manifest to maintain. With no journal at all, it is the only
		// durable record of the collections.
		if _, err := writeCapture(SnapshotFile(dir), cap); err != nil {
			return err
		}
		if j == nil {
			db.unlinkCollected(gone)
		}
		return nil
	}

	path, chain := SnapshotFile(dir), []uint64(nil)
	if !full {
		next := uint64(1)
		if n := len(m.Checkpoints); n > 0 {
			next = m.Checkpoints[n-1] + 1
		}
		path, chain = CheckpointFile(dir, next), append(slices.Clone(m.Checkpoints), next)
	}
	size, err := writeCapture(path, cap)
	if err != nil {
		return err
	}
	db.hook("written")

	nm := &wal.Manifest{CheckpointSeq: cap.head.Seq, Checkpoints: chain, OldestSegment: sealed + 1}
	if err := wal.WriteManifest(dir, nm); err != nil {
		// The old manifest still holds: a new delta is an orphan the next
		// attempt overwrites, a new snapshot loads under it (its chain
		// applies as no-ops over the newer base, stale segment records
		// are skipped by sequence). ckptView stays too, so the next
		// attempt diffs from the same base and covers this one's slice.
		return fmt.Errorf("%w: manifest: %v", ErrJournalTruncate, err)
	}
	db.manifest, db.ckptView = nm, cur
	defer db.observeCheckpoint(start, full, size)
	db.hook("manifest")
	db.unlinkCollected(gone)

	// Compact what the checkpoint supersedes: checkpoint files off the
	// chain, segments at or below the sealed one. A failure leaves only
	// cleanup pending, which a later checkpoint retries.
	if err := removeStaleCheckpoints(dir, chain); err != nil {
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
