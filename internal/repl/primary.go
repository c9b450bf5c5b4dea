package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/telemetry"
	"timedmedia/internal/wal"
)

// Feed pacing defaults. The poll interval bounds how stale a follower
// can be behind an idle connection; the heartbeat keeps lag metrics
// fresh and lets followers detect a half-dead link.
const (
	DefaultPollInterval      = 25 * time.Millisecond
	DefaultHeartbeatInterval = 500 * time.Millisecond
)

// Primary serves a catalog's replication feed. The catalog must have
// a segmented journal attached for dir (the normal tbmserve setup);
// the feed reads sealed segment files whole and the active segment
// only up to its durable boundary, so it never ships bytes a crash
// could roll back.
type Primary struct {
	db    *catalog.DB
	store blob.Store
	dir   string

	poll      time.Duration
	heartbeat time.Duration

	shipped    *telemetry.Counter
	feedErrors *telemetry.Counter
}

// NewPrimary builds the feed server for db, whose journal and payload
// files live in dir. reg may be nil (metrics are then dropped).
func NewPrimary(db *catalog.DB, store blob.Store, dir string, reg *telemetry.Registry) *Primary {
	return &Primary{
		db:         db,
		store:      store,
		dir:        dir,
		poll:       DefaultPollInterval,
		heartbeat:  DefaultHeartbeatInterval,
		shipped:    reg.Counter(telemetry.ReplShippedFamily, ""),
		feedErrors: reg.Counter(telemetry.ReplFeedErrorsFamily, ""),
	}
}

// SetIntervals overrides the feed's poll and heartbeat pacing (tests
// tighten them). Non-positive values keep the current setting.
func (p *Primary) SetIntervals(poll, heartbeat time.Duration) {
	if poll > 0 {
		p.poll = poll
	}
	if heartbeat > 0 {
		p.heartbeat = heartbeat
	}
}

// Register installs the feed endpoints through add, so the one list of
// route patterns serves tbmserve, tests, and a dedicated feed listener
// alike.
func (p *Primary) Register(add func(pattern, name string, h http.HandlerFunc)) {
	add("GET /v1/repl/snapshot", "repl_snapshot", p.HandleSnapshot)
	add("GET /v1/repl/wal", "repl_wal", p.HandleWAL)
	add("GET /v1/repl/blobs", "repl_blobs", p.HandleBlobs)
	add("GET /v1/repl/blob/{id}", "repl_blob", p.HandleBlob)
}

// HandleSnapshot streams the chain the catalog's state stands on, as it
// is (catalog.OpenChain): per file, a TypeFile frame, then its bytes.
// X-Repl-Seq is the seq the chain ends at, where the feed resumes. The
// files were opened under the checkpoint lock: one a checkpoint unlinks
// mid-stream stays readable.
func (p *Primary) HandleSnapshot(w http.ResponseWriter, r *http.Request) {
	files, seq, err := p.db.OpenChain(p.dir)
	if err != nil {
		http.Error(w, fmt.Sprintf("snapshot: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Repl-Seq", strconv.FormatUint(seq, 10))
	for _, f := range files {
		defer f.Close()
		// A stream cut short leaves the follower below the chain's seq,
		// where the feed answers 410 and it bootstraps again.
		fi, err := f.Stat()
		if err != nil || WriteFrame(w, Frame{Type: TypeFile, Backlog: uint64(fi.Size()), Payload: []byte(filepath.Base(f.Name()))}) != nil {
			return
		}
		if _, err := io.CopyN(w, f, fi.Size()); err != nil {
			return
		}
	}
}

// cursor is a feed connection's position in the segment files.
type cursor struct {
	seg uint64
	off int64
}

// HandleWAL streams journal records with seq > from_seq, then follows
// the live log. The response is an unbounded RPF1 frame stream; it
// ends when the client goes away, compaction outruns the cursor
// (TypeGone), or the log holds a durable record the feed cannot read
// (see ship): that is logged and counted, and answered with a 500 when
// the response has not begun, as it has not on the follower's every
// reconnect. A from_seq already below the checkpoint floor is 410 — the
// records are only available via a fresh bootstrap.
func (p *Primary) HandleWAL(w http.ResponseWriter, r *http.Request) {
	fromSeq, err := strconv.ParseUint(r.URL.Query().Get("from_seq"), 10, 64)
	if err != nil {
		http.Error(w, "want ?from_seq=N", http.StatusBadRequest)
		return
	}
	if m := p.db.Manifest(); m != nil && fromSeq < m.CheckpointSeq {
		http.Error(w, fmt.Sprintf("from_seq %d compacted away (checkpoint at %d); re-bootstrap",
			fromSeq, m.CheckpointSeq), http.StatusGone)
		return
	}
	cur, ok := p.startCursor()
	if !ok {
		http.Error(w, "catalog has no segmented journal attached", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Accel-Buffering", "no")
	flusher, _ := w.(http.Flusher)

	lastSent := fromSeq
	lastBeat := time.Time{} // zero: first loop iteration heartbeats immediately
	begun := false          // whether any frame has been written
	ctx := r.Context()
	for ctx.Err() == nil {
		durSeg, durOff, ok := p.db.WALDurableBoundary()
		if !ok {
			return
		}
		wrote, err := p.ship(w, &cur, &lastSent, durSeg, durOff)
		begun = begun || wrote
		if errors.Is(err, errGone) {
			WriteFrame(w, Frame{Type: TypeGone, Seq: p.checkpointSeq()})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if err != nil {
			p.feedErrors.Inc()
			log.Printf("repl: feed to %s stopped: %v", r.RemoteAddr, err)
			if !begun {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		if time.Since(lastBeat) >= p.heartbeat {
			if err := WriteFrame(w, Frame{
				Type:    TypeHeartbeat,
				Seq:     p.db.Seq(),
				Backlog: p.backlog(cur, durSeg, durOff),
			}); err != nil {
				return
			}
			lastBeat = time.Now()
			wrote, begun = true, true
		}
		if wrote && flusher != nil {
			flusher.Flush()
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(p.poll):
		}
	}
}

// startCursor positions a new feed connection at the oldest segment
// that can still hold unshipped records.
func (p *Primary) startCursor() (cursor, bool) {
	if _, _, ok := p.db.WALDurableBoundary(); !ok {
		return cursor{}, false
	}
	start := uint64(1)
	if m := p.db.Manifest(); m != nil && m.OldestSegment > 0 {
		start = m.OldestSegment
	}
	if idxs, err := wal.ListSegments(p.dir); err == nil && len(idxs) > 0 && idxs[0] > start {
		start = idxs[0]
	}
	return cursor{seg: start}, true
}

// checkpointSeq is the manifest's coverage floor (0 before the first
// checkpoint).
func (p *Primary) checkpointSeq() uint64 {
	if m := p.db.Manifest(); m != nil {
		return m.CheckpointSeq
	}
	return 0
}

// ship writes every durable record past the cursor with seq > lastSent
// and advances both. errGone reports that a segment the cursor still
// needed was compacted away — the follower must re-bootstrap. Any other
// error is a durable, CRC-valid frame whose record header does not
// parse, named by segment, offset and the seq of the record before it.
// The feed stops there and lastSent never passes it: the primary's own
// replay would refuse that log (catalog.ErrReplay), so a feed that
// skipped the record would leave a follower silently short of its
// primary at the same seq.
func (p *Primary) ship(w io.Writer, cur *cursor, lastSent *uint64, durSeg uint64, durOff int64) (wrote bool, _ error) {
	var lastGood uint64 // newest record this pass parsed, shipped or not
	for cur.seg <= durSeg {
		limit := int64(-1) // sealed: read to EOF
		if cur.seg == durSeg {
			limit = durOff
		}
		consumed, err := readRecords(wal.SegmentFile(p.dir, cur.seg), cur.off, limit, func(rec []byte) error {
			seq, _, _, err := catalog.RecordInfo(rec)
			if err != nil {
				return err
			}
			lastGood = seq
			if seq <= *lastSent {
				return nil
			}
			if werr := WriteFrame(w, Frame{Type: TypeRecord, Seq: seq, Payload: rec}); werr != nil {
				return werr
			}
			*lastSent = seq
			p.shipped.Inc()
			wrote = true
			return nil
		})
		if err != nil {
			if errors.Is(err, catalog.ErrReplay) {
				return wrote, fmt.Errorf("repl: segment %d, offset %d, after seq %d: %w", cur.seg, cur.off+consumed, lastGood, err)
			}
			if errors.Is(err, os.ErrNotExist) {
				// Compacted under us. Records at or below the checkpoint
				// floor are covered by snapshots the follower already has
				// (or must re-fetch); anything above it still lives in a
				// later segment.
				if *lastSent < p.checkpointSeq() {
					return wrote, errGone
				}
				cur.seg++
				cur.off = 0
				continue
			}
			return wrote, nil // write error or transient read error: caller's poll retries
		}
		cur.off += consumed
		if cur.seg == durSeg {
			return wrote, nil // caught up to the durable boundary
		}
		// Sealed segment fully read (a tear in one truncates it for the
		// feed exactly as it does for local replay); move on.
		cur.seg++
		cur.off = 0
	}
	return wrote, nil
}

// readRecords decodes WAL frames from path starting at off, stopping
// at limit (absolute file offset; -1 reads to EOF), and returns the
// bytes consumed by intact records. A tear stops the scan cleanly.
func readRecords(path string, off, limit int64, fn func([]byte) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := limit - off
	if limit < 0 {
		n = math.MaxInt64 - off
	}
	res, err := wal.ReplayFrames(io.NewSectionReader(f, off, max(n, 0)), fn)
	return res.Consumed, err
}

// backlog estimates the durable WAL bytes the cursor has not shipped
// yet — the byte form of replication lag, carried on heartbeats.
func (p *Primary) backlog(cur cursor, durSeg uint64, durOff int64) uint64 {
	var total int64
	for seg := cur.seg; seg <= durSeg; seg++ {
		var size int64
		if seg == durSeg {
			size = durOff
		} else if fi, err := os.Stat(wal.SegmentFile(p.dir, seg)); err == nil {
			size = fi.Size()
		}
		if seg == cur.seg {
			size -= cur.off
		}
		if size > 0 {
			total += size
		}
	}
	return uint64(total)
}

// blobInfo is one entry of GET /v1/repl/blobs.
type blobInfo struct {
	ID   uint64 `json:"id"`
	Size int64  `json:"size"`
}

// HandleBlobs lists the primary's payload files so a bootstrapping
// follower knows what to fetch.
func (p *Primary) HandleBlobs(w http.ResponseWriter, r *http.Request) {
	ids, err := p.store.IDs()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out := make([]blobInfo, 0, len(ids))
	for _, id := range ids {
		b, err := p.store.Open(id)
		if err != nil {
			continue // quarantined or raced a delete; the follower skips it too
		}
		out = append(out, blobInfo{ID: uint64(id), Size: b.Size()})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// HandleBlob streams one payload's bytes. Reads go through the store,
// so a corrupt payload is quarantined here rather than replicated.
func (p *Primary) HandleBlob(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil || n == 0 {
		http.Error(w, "bad blob id", http.StatusBadRequest)
		return
	}
	b, err := p.store.Open(blob.ID(n))
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, blob.ErrNotFound) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	size := b.Size()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	const chunk = 1 << 20
	for off := int64(0); off < size; {
		n := int64(chunk)
		if off+n > size {
			n = size - off
		}
		data, err := b.ReadSpan(off, n)
		if err != nil {
			return // headers sent; the short body fails the follower's size check
		}
		if _, err := w.Write(data); err != nil {
			return
		}
		off += n
	}
}
