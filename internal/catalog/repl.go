package catalog

// Replication surface: the small set of catalog hooks internal/repl
// builds on. A primary ships its journal frames verbatim (they are
// already idempotent, seq-stamped, and laid out in sequence order); a
// follower commits them through the same code path every commit takes
// and re-journals the identical bytes locally, so a promoted
// follower's log is byte-compatible with the primary's acked prefix.

import (
	"fmt"

	"timedmedia/internal/blob"
)

// Seq returns the sequence number of the newest mutation this catalog
// has accepted. On a primary that includes records whose group commit
// is still in flight; on a follower it is the last replicated record
// applied — or, while a run's append is in flight, the run's last one,
// ahead of the published view — which is what a feed resume sends as
// from_seq.
func (db *DB) Seq() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.seq
}

// WALDurableBoundary reports the attached journal's active segment
// index and durable byte offset within it; ok is false when no journal
// is attached. The replication feed reads sealed segments whole and
// the active segment only up to this boundary, so it never ships bytes
// a crash could roll back.
func (db *DB) WALDurableBoundary() (seg uint64, off int64, ok bool) {
	db.mu.RLock()
	j := db.wal
	db.mu.RUnlock()
	if j != nil {
		seg, off = j.DurableBoundary()
	}
	return seg, off, j != nil
}

// RecordInfo reads the routing metadata of one encoded journal record
// from its header, decoding no body and allocating nothing: its
// sequence number, operation kind, and — for interpretation records —
// the BLOB whose payload must be present before the record can apply.
// The feed server uses the seq to filter frames; the follower uses the
// blob ID to fetch payloads ahead of apply.
func RecordInfo(data []byte) (seq uint64, kind string, blobID blob.ID, err error) {
	head, _, err := peekOp(data)
	return head.Seq, head.Kind, head.Blob, err
}

// ApplyReplicated commits a run of journal records received from a
// replication feed, in feed order: a record at or below the seq before
// it is skipped (the feed replays from a resume point, so duplicates
// are expected and harmless); the rest are applied at their recorded
// seqs and IDs as one commit — the identical bytes are re-journaled
// locally as one WAL batch with one fsync, so the follower's own WAL
// stays a faithful copy of the primary's acked prefix — and the view at
// the run's last seq is published once, only when they are durable.
// Returns the catalog's seq after the call. One frame is a run of one.
//
// The feed delivers records in sequence order; ApplyReplicated must
// not be called concurrently with itself or with local mutations —
// a follower has exactly one tailer and rejects writes.
//
// A run is atomic. When a record does not parse or apply, or the
// local append fails, nothing of the run was published: the view and
// Seq stay at the last durable record, and applying the same bytes
// again is no duplicate.
func (db *DB) ApplyReplicated(frames ...[]byte) (uint64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	run := make([]*walOp, 0, len(frames))
	last := db.seq
	for _, data := range frames {
		head, _, err := peekOp(data)
		if err != nil {
			return 0, err
		}
		if head.Seq <= last {
			continue
		}
		rec, err := decodeOp(data)
		if err != nil {
			return 0, fmt.Errorf("catalog: apply replicated seq %d: %w", head.Seq, err)
		}
		rec.raw = data
		run = append(run, rec)
		last = head.Seq
	}
	if len(run) == 0 {
		return last, nil
	}
	if i, err := db.commitLocked(run); err != nil {
		seq := run[0].Seq
		if i >= 0 {
			seq, err = run[i].Seq, fmt.Errorf("%w: %w", ErrReplay, err)
		}
		return 0, fmt.Errorf("catalog: apply replicated seq %d: %w", seq, err)
	}
	return last, nil
}
