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
// a live object references — referrers come from the provenance
// adjacency index, which also lists tombstoned ones. The version-chain
// tombstone at seq and any BLOB interpretation collection land in the
// edit together; the index entries stay until the chain is dropped.
func (e *viewEdit) applyDelete(id core.ID, seq uint64) error {
	obj := e.getByID(id)
	if obj == nil {
		return fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	if set, ok := e.ix.deps.get(id); ok {
		if other, live := e.liveMember(set); live {
			return fmt.Errorf("%w: %v ← %v", ErrInUse, id, other)
		}
	}
	e.appendTombstone(obj, seq)
	if obj.Class == core.ClassNonDerived {
		e.maybeCollectBlob(obj.Blob, seq)
	}
	return nil
}

// liveMember returns the first member of an index posting list that is
// live in the edit's working state.
func (e *viewEdit) liveMember(set idset) (id core.ID, live bool) {
	set.ascend(func(k core.ID, _ struct{}) bool {
		id, live = k, e.getByID(k) != nil
		return !live
	})
	return id, live
}

// maybeCollectBlob tombstones the BLOB's interpretation in the edit when
// no object live in the edit's working state still reads it (a probe
// of the reader index, which also lists tombstoned readers). The
// collection is recorded as an interpretation tombstone at seq, so
// as-of reads know the history ends there; the checkpoint that covers
// it unlinks the file.
func (e *viewEdit) maybeCollectBlob(id blob.ID, seq uint64) {
	if set, ok := e.ix.blob.get(id); ok {
		if _, live := e.liveMember(set); live {
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
