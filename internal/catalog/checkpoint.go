package catalog

// Incremental checkpoints and bounded recovery.
//
// A checkpoint is the diff of two pinned views: the one the last
// durable checkpoint captured (DB.ckptView) and the current one. The
// treaps share every subtree nothing touched since, so the diff
// (pmap.go) costs O(changes · log n). A delta holds the entries newer
// than the manifest's CheckpointSeq of every chain that differs, its
// head what was deleted or collected since, and extends the manifest's
// chain; a base (Save, or a promoted Checkpoint) is the same capture
// against the empty catalog, with FromSeq 0, and starts a new chain.
// Both are dir/checkpoint.NNNNNN.ckpt under the next file number, both
// run one write sequence (checkpointLocked) and write one payload, a
// stream of version records (record.go): the live catalog is the
// chains' tails. A failed attempt leaves ckptView and the manifest as
// they were, so the next one covers its slice. Recovery reads
//
//	MANIFEST → base → deltas → surviving segments
//
// so startup cost is bounded by live state plus the uncheckpointed
// tail, not by mutation history, and that tail is replayed at most
// once: a server checkpoints what a restart replayed before it serves
// (cmd/tbmserve; not after a fallback to the backup base). db.mu is
// held only to pin a view and rotate the WAL; diff, capture, encode
// and fsyncs run unlocked.
//
// Crash windows (each boundary has a checkpointHook stage, exercised
// by crash tests, for a delta and a base alike):
//
//	after rotate, before the file   → old manifest, all segments
//	  survive; replay covers the records.
//	after the file, before the manifest → the new file is an orphan
//	  the manifest never names; replay covers the records, and the
//	  next checkpoint, numbered above it, deletes it.
//	after the manifest, before cleanup → superseded chain files and
//	  segments linger; the chain skips the first, replay skips the
//	  second's records via sequence numbers. Open sweeps the BLOBs the
//	  checkpoint collected but did not unlink.
//
// Without a MANIFEST, or with its base damaged, Load rebuilds the chain
// from the file heads (persist.go): the orphan of the second window,
// when it reads clean, is then simply part of the chain.

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
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
// many delta files extend the base, the next checkpoint is promoted to
// a new base, starting a new chain.
const DefaultMaxCheckpointChain = 8

const checkpointPrefix = "checkpoint."
const checkpointSuffix = ".ckpt"

// CheckpointFile returns the path of checkpoint file n, a base or a
// delta, inside a database directory.
func CheckpointFile(dir string, n uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d%s", checkpointPrefix, n, checkpointSuffix))
}

// parseCheckpointIndex extracts n from a checkpoint file name.
func parseCheckpointIndex(name string) (uint64, bool) {
	mid, ok := strings.CutPrefix(name, checkpointPrefix)
	if mid, ok2 := strings.CutSuffix(mid, checkpointSuffix); ok && ok2 && len(mid) >= 6 {
		n, err := strconv.ParseUint(mid, 10, 64)
		return n, err == nil && n > 0
	}
	return 0, false
}

// listCheckpoints returns the numbers of dir's checkpoint files in
// ascending order (none when dir does not exist).
func listCheckpoints(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	var nums []uint64
	for _, e := range entries {
		if n, ok := parseCheckpointIndex(e.Name()); ok {
			nums = append(nums, n)
		}
	}
	slices.Sort(nums)
	return nums, nil
}

// catalogStreamPreamble opens a snapshot or checkpoint payload (format
// "catalog stream 4"): the preamble, then a streamHead and
// head.NumRecords records, each a uvarint length and that many bytes in
// the record layout (record.go). Integrity is the container's (per-chunk
// CRC-32C plus a whole-stream trailer); a payload that opens with
// anything else is ErrSnapshotFormat — stream 3 included, whose records
// were gob.
var catalogStreamPreamble = [8]byte{'T', 'B', 'M', 'C', 'A', 'T', 'S', '4'}

// streamHead leads a snapshot payload, which covers mutations in
// (FromSeq, Seq]: everything up to Seq for a full snapshot (FromSeq
// 0), the slice since the previous checkpoint for a delta. Deleted
// IDs ride in the head (they are tiny) and name what a delta removes
// from the state below it even when retention left no chain to carry
// the tombstone; VerFloor is the capture-time version floor and
// NextBlob is DB.nextBlob.
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

// capEntry is one version-chain entry a capture writes: an object
// version (obj) or tombstone, or an interpretation registration (it) or
// tombstone. Live state is not stored: once a file's records are
// applied, an object is live exactly when its chain's tail is not a
// tombstone, and the tail is the live object. Chains are immutable, so
// an entry is encoded only when the file is written.
type capEntry struct {
	ofInterp bool
	id       uint64 // object ID or BLOB ID
	seq      uint64
	name     string // object chains: a tombstone carries the chain's name
	obj      *core.Object
	it       *interp.Interpretation
}

// snapCapture is the slice of a pinned view a checkpoint writes out
// (capture).
type snapCapture struct {
	head    streamHead
	entries []capEntry
}

// seal fixes the stream order — object records first, then
// interpretation records, each group by ID and then seq, so a chain's
// entries arrive together and in order — and completes the head.
func (cap *snapCapture) seal(verFloor uint64) {
	slices.SortFunc(cap.entries, func(a, b capEntry) int {
		if a.ofInterp != b.ofInterp {
			if a.ofInterp {
				return 1
			}
			return -1
		}
		return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.seq, b.seq))
	})
	slices.Sort(cap.head.DelObjects)
	slices.Sort(cap.head.DelInterps)
	cap.head.VerFloor = verFloor
	cap.head.NumRecords = len(cap.entries)
}

// writeCapture streams cap into path as a chunked container
// (tmp + fsync + rename + dir fsync) and returns the container's size.
// Every record is laid out in one buffer, reused.
func writeCapture(path string, cap *snapCapture) (int64, error) {
	err := durable.WriteStreamSnapshot(path, func(w io.Writer) error {
		var n [binary.MaxVarintLen64]byte
		put := func(rec []byte) error {
			if _, err := w.Write(n[:binary.PutUvarint(n[:], uint64(len(rec)))]); err != nil {
				return err
			}
			_, err := w.Write(rec)
			return err
		}
		if _, err := w.Write(catalogStreamPreamble[:]); err != nil {
			return err
		}
		head := interp.Coder{Buf: make([]byte, 0, 4<<10)}
		codeHead(&head, &cap.head)
		buf := head.Buf
		if err := put(buf); err != nil {
			return err
		}
		for i := range cap.entries {
			var err error
			switch x := &cap.entries[i]; {
			case x.ofInterp:
				buf, err = appendInterpVersion(buf[:0], blob.ID(x.id), x.seq, x.it)
			default:
				buf, err = appendVersion(buf[:0], core.ID(x.id), x.name, x.seq, x.obj)
			}
			if err == nil {
				err = put(buf)
			}
			if err != nil {
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

// captureObjChain records one object chain's entries newer than fromSeq
// (fromSeq 0 captures the whole chain).
func captureObjChain(cap *snapCapture, id core.ID, c *verChain, fromSeq uint64) {
	for _, ent := range c.entries {
		if ent.seq > fromSeq {
			cap.entries = append(cap.entries, capEntry{id: uint64(id), seq: ent.seq, name: c.name, obj: ent.val})
		}
	}
}

// captureInterpChain records one interpretation chain's entries newer
// than fromSeq. Only the live tail is written as a registration: a
// superseded or tombstoned registration's BLOB may already be
// collected, so its history cannot be re-imported after a reload — the
// tombstone record raises the floor past it instead.
func captureInterpChain(cap *snapCapture, id blob.ID, c *interpVerChain, fromSeq uint64) {
	tailSeq := c.tail().seq
	for _, ent := range c.entries {
		if ent.seq > fromSeq && (ent.val == nil || ent.seq == tailSeq) {
			cap.entries = append(cap.entries, capEntry{ofInterp: true, id: uint64(id), seq: ent.seq, it: ent.val})
		}
	}
}

// catalogStream is an opened chain file, positioned at its first
// record. buf holds the record next read, and is reused.
type catalogStream struct {
	io.Closer
	br   *bufio.Reader
	buf  []byte
	head streamHead
}

// openStream opens the file at path and decodes its head. A missing
// file passes through as fs.ErrNotExist; damage at any layer is
// ErrCorruptSnapshot; a file whose container verifies but whose
// payload is not a TBMCATS4 stream is ErrSnapshotFormat.
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
	data, err := s.next()
	if err == nil {
		s.head, err = decodeHead(data)
	}
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("%w: snapshot head: %v", ErrCorruptSnapshot, err)
	}
	return s, nil
}

// next reads the next record: a uvarint length and that many bytes,
// into s.buf. The buffer grows with the bytes that arrive, not with
// the length a damaged file may claim.
func (s *catalogStream) next() ([]byte, error) {
	n, err := binary.ReadUvarint(s.br)
	if err != nil {
		return nil, err
	}
	s.buf = s.buf[:0]
	for n > 0 {
		k := int(min(n, 64<<10))
		s.buf = slices.Grow(s.buf, k)
		if _, err := io.ReadFull(s.br, s.buf[len(s.buf):len(s.buf)+k]); err != nil {
			return nil, err
		}
		s.buf, n = s.buf[:len(s.buf)+k], n-uint64(k)
	}
	return s.buf, nil
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
		data, err := s.next()
		if err != nil {
			return fmt.Errorf("%w: record %d/%d: %v", ErrCorruptSnapshot, i, head.NumRecords, err)
		}
		v, err := decodeVersion(data)
		if err == nil && v.obj != nil {
			err = v.obj.Validate()
		}
		if err != nil {
			return fmt.Errorf("%w: record %d: %v", ErrCorruptSnapshot, i, err)
		}
		switch v.Kind {
		case opNonDerived, opDerived, opMultimedia:
			e.appendVersion(v.obj, v.Seq)
		case opDelete:
			if e.vers.has(v.ID) {
				e.extendChain(v.ID, v.Name, verEntry{seq: v.Seq})
			} else {
				// The entries this tombstone closed were not captured
				// (pruned): nothing below it is answerable.
				e.raiseFloor(v.Seq)
			}
		case opInterp:
			b, err := db.openBlob(v.Blob)
			if errors.Is(err, blob.ErrNotFound) {
				break
			}
			if err != nil {
				return err
			}
			it, err := interp.Import(v.exp, b)
			if err != nil {
				return fmt.Errorf("%w: record %d: %v", ErrCorruptSnapshot, i, err)
			}
			e.appendInterpVersion(it, v.Seq)
		case opCollected:
			e.appendInterpTombstone(blob.ID(v.ID), v.Seq)
		}
	}
	// A delete or collection whose chain retention dropped carries no
	// tombstone record: the chain below, still ending live, goes (the
	// head's floor already covers the drop), or it would stay live and
	// an as-of read would resurrect it.
	for _, id := range head.DelObjects {
		if o := e.getByID(id); o != nil {
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
	// trailer validates, and a payload ends with its last record.
	if n, err := io.Copy(io.Discard, s.br); err != nil || n != 0 {
		return fmt.Errorf("%w: %d bytes after the last record (%v)", ErrCorruptSnapshot, n, err)
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
)

var promotionReasons = []string{promoteNoJournal, promoteNoBase, promoteChainBound}

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
	from := &state{}
	if base != nil {
		from = &base.state
	} else {
		ch.objs, ch.interps = make([]change[core.ID, *verChain], 0, cur.count), make([]change[blob.ID, *interpVerChain], 0, cur.interpVers.len())
	}
	diff(from.vers, cur.vers, func(id core.ID, _, c *verChain) {
		ch.objs = append(ch.objs, change[core.ID, *verChain]{id, c})
	})
	diff(from.interpVers, cur.interpVers, func(id blob.ID, _, c *interpVerChain) {
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
func capture(ch *chainChanges, cur *View, head streamHead, delta bool) *snapCapture {
	cap := &snapCapture{head: head}
	for _, x := range ch.objs {
		if x.c != nil {
			captureObjChain(cap, x.id, x.c, head.FromSeq)
		}
		if delta && (x.c == nil || x.c.tail().val == nil) {
			cap.head.DelObjects = append(cap.head.DelObjects, x.id)
		}
	}
	for _, x := range ch.interps {
		if x.c != nil {
			captureInterpChain(cap, x.id, x.c, head.FromSeq)
		}
	}
	if delta {
		cap.head.DelInterps = ch.collected()
	}
	cap.seal(cur.verFloor)
	return cap
}

// Checkpoint makes the catalog's durable state current with bounded
// work: a delta unless the chain must start — no journal for dir, no
// manifest or checkpoint view to diff against, or the chain at its
// bound; each counted in tbm_checkpoint_promotions_total by reason. A
// quiescent catalog checkpoints to a no-op. Requires the same
// preconditions as Save; safe to call concurrently with mutations and
// with Save (saveMu serializes).
func (db *DB) Checkpoint(dir string) error {
	db.saveMu.Lock()
	defer db.saveMu.Unlock()
	return db.checkpointLocked(dir, false)
}

// checkpointLocked is the one write sequence behind Save (full) and
// Checkpoint (a delta unless the chain must start): pin → rotate →
// capture → write → MANIFEST → unlink → compact, each boundary a
// checkpointHook stage. Once the commits are settled the view is every
// record up to db.seq, so the rotation lands there; it is immutable, so
// writers commit while it is diffed and captured. Assumes saveMu held.
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
		case len(m.Checkpoints) > DefaultMaxCheckpointChain:
			reason = promoteChainBound
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
	cap := capture(all, cur, head, !full)
	gone := since.collected()

	// A new base keeps the previous chain's base as the backup: db's
	// chain, or for a directory without the journal the one its MANIFEST
	// names (best effort: a corrupt one keeps no backup).
	var backup uint64
	if prev := m; full {
		if !attached {
			prev, _ = wal.LoadManifest(dir)
		}
		if prev != nil && len(prev.Checkpoints) > 0 {
			backup = prev.Checkpoints[0]
		}
	}
	// The file goes under the next number, above every file in dir: a
	// chain rebuilt from the file heads then never takes an orphan or an
	// abandoned chain's delta for part of this one.
	nums, err := listCheckpoints(dir)
	if err != nil {
		return err
	}
	next := uint64(1)
	if len(nums) > 0 {
		next = nums[len(nums)-1] + 1
	}
	chain := []uint64{next}
	if !full {
		chain = append(slices.Clone(m.Checkpoints), next)
	}
	size, err := writeCapture(CheckpointFile(dir, next), cap)
	if err != nil {
		return err
	}
	db.hook("written")

	nm := &wal.Manifest{CheckpointSeq: cap.head.Seq, Checkpoints: chain, OldestSegment: sealed + 1}
	if err := wal.WriteManifest(dir, nm); err != nil {
		if !attached {
			return err
		}
		// The old manifest still holds, and the journal every record
		// since: the new file is an orphan the next attempt numbers
		// past. ckptView stays too, so the next attempt diffs from the
		// same base and covers this one's slice.
		return fmt.Errorf("%w: manifest: %v", ErrJournalTruncate, err)
	}
	if attached {
		db.manifest, db.ckptView = nm, cur
		if t := db.tel.Load(); t != nil {
			t.chainFiles.Set(int64(len(chain)))
		}
	}
	defer db.observeCheckpoint(start, full, size)
	db.hook("manifest")
	if attached || j == nil {
		// With no journal at all, the chain is the only durable record
		// of the collections.
		db.unlinkCollected(gone)
	}

	// Compact what the checkpoint supersedes: the files off the new
	// chain — after a new base all but the backup; after a delta those
	// above the base — and the segments at or below the sealed one. A
	// failure leaves only cleanup pending, which a later checkpoint
	// retries.
	for _, n := range nums {
		if slices.Contains(chain, n) || n == backup || !full && n < chain[0] {
			continue
		}
		if err := os.Remove(CheckpointFile(dir, n)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: stale checkpoints: %v", ErrJournalTruncate, err)
		}
	}
	if attached {
		if _, err := j.CompactThrough(sealed); err != nil {
			return fmt.Errorf("%w: %v", ErrJournalTruncate, err)
		}
	}
	db.hook("compacted")
	return nil
}

// Manifest returns the chain the catalog's state stands on in the
// attached directory: the last MANIFEST a checkpoint wrote, or the
// chain Load read (nil before the first checkpoint of a directory that
// had none).
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
