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
	_, err := db.commit(&walOp{Kind: opDelete, ID: id})
	return err
}

// applyDelete validates a delete against the edit's working state and
// applies it there: it refuses an object that does not exist, or that
// another object references — referrers come from the provenance
// adjacency index. The unlink, the version-chain tombstone at seq and
// any BLOB interpretation collection land in the edit together.
func (e *viewEdit) applyDelete(id core.ID, seq uint64) error {
	obj := e.getByID(id)
	if obj == nil {
		return fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	if set, ok := e.ix.deps.get(id); ok {
		var other core.ID
		set.ascend(func(k core.ID, _ struct{}) bool {
			other = k
			return false
		})
		return fmt.Errorf("%w: %v ← %v", ErrInUse, id, other)
	}
	e.unlink(obj)
	e.appendTombstone(obj, seq)
	if obj.Class == core.ClassNonDerived {
		e.maybeCollectBlob(obj.Blob, seq)
	}
	return nil
}

// maybeCollectBlob tombstones the BLOB's interpretation in the edit when
// no object in the edit's working state (one probe of the reader
// index) still reads it. The collection is recorded as an
// interpretation tombstone at seq, so as-of reads know the history ends
// there; the checkpoint that covers it unlinks the file.
func (e *viewEdit) maybeCollectBlob(id blob.ID, seq uint64) {
	if e.ix.blob.has(id) {
		return
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
