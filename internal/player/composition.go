package player

import (
	"context"
	"fmt"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/interp"
)

// PlayComposition presents a multimedia object: every component that
// resolves to stored (non-derived) media plays from its interpretation
// at its composition offset; derived components are expanded first and
// delivered as decoded elements. The whole object is read from one
// view of the catalog. Sync constraints declared on the object are
// checked against the actual delivery times and the worst observed
// skew is reported (see Report.MaxSkew).
func PlayComposition(db *catalog.DB, id core.ID, clock Clock, sink Sink, opts Options) (Report, error) {
	v := db.CurrentView()
	obj, err := v.Get(id)
	if err != nil {
		return Report{}, err
	}
	if obj.Class != core.ClassMultimedia {
		return Report{}, fmt.Errorf("player: %v is not a multimedia object", id)
	}
	spec := obj.Multimedia
	srcs := make([]source, len(spec.Components))
	for ci, cref := range spec.Components {
		comp, err := v.Get(cref.Object)
		if err != nil {
			return Report{}, err
		}
		var it *interp.Interpretation
		track := comp.Track
		switch comp.Class {
		case core.ClassNonDerived:
			if it, err = v.Interpretation(comp.Blob); err != nil {
				return Report{}, err
			}
		case core.ClassDerived:
			// Expansion on demand: the expanded value is encoded with
			// Ingest's encoders into a private in-memory BLOB, so
			// playback reads real placements while the catalog stays
			// untouched. (The paper: store the derivation if expansion
			// is real-time; here we expand eagerly and keep the
			// encoding private.)
			val, err := v.ExpandContext(context.Background(), comp.ID)
			if err == nil {
				it, track, err = catalog.Encode(blob.NewMemStore(), val, catalog.IngestOptions{})
			}
			if err != nil {
				return Report{}, fmt.Errorf("player: expanding component %q: %w", comp.Name, err)
			}
		default:
			return Report{}, fmt.Errorf("player: component %q is not playable media", comp.Name)
		}
		tr, err := it.Track(track)
		if err != nil {
			return Report{}, err
		}
		srcs[ci] = source{it: it, tr: tr, label: comp.Name, offset: spec.Time.Seconds(cref.Start)}
	}
	sched := schedule(srcs, opts)
	if len(sched) == 0 {
		return Report{}, ErrNoTracks
	}
	return run(srcs, sched, spec.Syncs, clock, sink, opts)
}
