package catalog

import (
	"errors"
	"fmt"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
)

// ErrInUse is returned when deleting an object that other objects
// derive from or compose — the paper's warning about destroying
// interpretations applies equally to dangling derivation inputs.
var ErrInUse = errors.New("catalog: object is referenced by others")

// Delete removes an object from the catalog. It refuses while any
// other object references it (as a derivation input or composition
// component). When the last object bound to a BLOB disappears, the
// BLOB's interpretation is tombstoned; its file goes only once a
// checkpoint covers the tombstone (see unlinkCollected).
func (db *DB) Delete(id core.ID) error {
	return db.commitSerial(&walOp{Kind: opDelete, ID: id})
}

// checkDeletable returns the object id names, or why it cannot be
// deleted: it does not exist, or another object references it.
// Referrers come from the provenance adjacency index; edges live in
// the referrer's shard, so every shard of the current view is probed.
// Nothing is staged (see applyLocked), so the view holds every
// referrer. Assumes db.mu is held.
func (db *DB) checkDeletable(id core.ID) (*core.Object, error) {
	cur := db.cur.Load()
	obj := cur.getByID(id)
	if obj == nil {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	for _, sh := range cur.shards {
		if set, ok := sh.ix.deps.get(id); ok {
			var other core.ID
			set.ascend(func(k core.ID, _ struct{}) bool {
				other = k
				return false
			})
			return nil, fmt.Errorf("%w: %v ← %v", ErrInUse, id, other)
		}
	}
	return obj, nil
}

// deleteLocked removes an object, validating references first (replay
// has no commitSerial before it). The unlink, the version-chain
// tombstone at seq, and any BLOB interpretation collection land
// together as the view at seq. Assumes db.mu is held.
func (db *DB) deleteLocked(id core.ID, seq uint64) error {
	obj, err := db.checkDeletable(id)
	if err != nil {
		return err
	}
	e := db.beginEditLocked()
	e.unlink(obj)
	e.appendTombstone(obj, seq)
	// GC the BLOB if no remaining object reads it.
	if obj.Class == core.ClassNonDerived {
		db.maybeCollectBlob(e, obj.Blob, seq)
	}
	db.commitEditLocked(e, seq)
	db.cache.Invalidate(id)
	return nil
}

// maybeCollectBlob tombstones the BLOB's interpretation in the edit when
// no object in the edit's working state (one probe of each shard's
// reader index) still reads it; nothing is staged (see applyLocked).
// The collection is recorded as an interpretation tombstone at seq, so
// as-of reads know the history ends there; the checkpoint that covers
// it unlinks the file. Assumes db.mu is held.
func (db *DB) maybeCollectBlob(e *viewEdit, id blob.ID, seq uint64) {
	for _, sh := range e.shards {
		if sh.ix.blob.has(id) {
			return
		}
	}
	e.appendInterpTombstone(id, seq)
}

// unlinkCollected removes the files of the BLOBs whose tombstones a
// checkpoint just made durable. Replay and the feed only hand over
// records above CheckpointSeq, so none of them names a file gone this
// way. Best effort: the next Open sweeps what this misses.
func (db *DB) unlinkCollected(ids []blob.ID) {
	for _, id := range ids {
		_ = db.store.Delete(id)
	}
}
