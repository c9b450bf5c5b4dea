package catalog

import (
	"fmt"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
)

// BatchItem describes one object in a DB.AddBatch call. Exactly one
// of the two shapes must be populated:
//
//   - non-derived: Blob + Track (the interpretation must already be
//     registered and durable);
//   - derived: Op + Params with inputs given as IDs (Inputs),
//     names (InputNames), or both — names resolve against the catalog
//     and against earlier items of the same batch, so a batch can
//     build a derivation chain in one call.
type BatchItem struct {
	Name  string
	Attrs map[string]string

	// Non-derived binding.
	Blob  blob.ID
	Track string

	// Derived definition. InputNames are appended after Inputs in
	// operator argument order.
	Op         string
	Inputs     []core.ID
	InputNames []string
	Params     []byte
}

// AddBatch registers every item or none of them. The whole batch is
// one commit (commitLocked): validated and applied into one pending
// view under one lock acquisition, each item seeing the items before
// it, and journaled as one WAL batch — a single write + fsync
// regardless of batch size — which is what makes bulk ingest amortize
// both locking and durability (the motivation: the paper's workflow
// "raw material is created and added to the database, and then
// successively refined and composed" arrives in bulk). On ack the
// whole batch is published as ONE new epoch, so no reader can ever
// observe half a batch. On success the returned IDs are in item order.
// On any error — validation of any item, reported for the first one
// that fails, or the journal append — no object is added and the
// catalog is unchanged.
func (db *DB) AddBatch(items []BatchItem) ([]core.ID, error) {
	if len(items) == 0 {
		return nil, nil
	}
	recs := make([]*walOp, len(items))
	for i := range items {
		it := &items[i]
		// An item of neither shape keeps an empty Kind; applyLocked
		// refuses it when its turn comes, so errors stay in item order.
		rec := &walOp{Name: it.Name, Attrs: it.Attrs}
		switch {
		case it.Op != "":
			rec.Kind, rec.Op, rec.Params = opDerived, it.Op, it.Params
			rec.Inputs, rec.inputNames = it.Inputs, it.InputNames
		case it.Blob != 0:
			rec.Kind, rec.Blob, rec.Track = opNonDerived, it.Blob, it.Track
		}
		recs[i] = rec
	}
	if i, err := db.commit(recs...); err != nil {
		if i >= 0 {
			err = fmt.Errorf("catalog: batch item %d (%q): %w", i, items[i].Name, err)
		}
		return nil, err
	}
	ids := make([]core.ID, len(recs))
	for i, rec := range recs {
		ids[i] = rec.ID
	}
	return ids, nil
}
