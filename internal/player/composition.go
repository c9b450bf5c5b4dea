package player

import (
	"fmt"
	"sort"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/interp"
)

// PlayComposition presents a multimedia object: every component that
// resolves to stored (non-derived) media plays from its interpretation
// at its composition offset; derived components are expanded first and
// delivered as decoded elements. Sync constraints declared on the
// object are checked against the actual delivery times and the worst
// observed skew is reported.
func PlayComposition(db *catalog.DB, id core.ID, clock Clock, sink Sink, opts Options) (Report, error) {
	obj, err := db.Get(id)
	if err != nil {
		return Report{}, err
	}
	if obj.Class != core.ClassMultimedia {
		return Report{}, fmt.Errorf("player: %v is not a multimedia object", id)
	}
	spec := obj.Multimedia

	// Build a merged schedule across components.
	type source struct {
		it    *interp.Interpretation
		track string
	}
	var sched []scheduled
	reports := make([]TrackReport, len(spec.Components))
	sources := make([]source, len(spec.Components))
	// lastDelivery[i] tracks component progress for skew measurement.
	lastDelivery := make([]time.Duration, len(spec.Components))

	for ci, cref := range spec.Components {
		comp, err := db.Get(cref.Object)
		if err != nil {
			return Report{}, err
		}
		var it *interp.Interpretation
		track := comp.Track
		switch comp.Class {
		case core.ClassNonDerived:
			if it, err = db.Interpretation(comp.Blob); err != nil {
				return Report{}, err
			}
		case core.ClassDerived:
			// Expansion on demand: the expanded value is encoded with
			// Ingest's encoders into a private in-memory BLOB, so
			// playback reads real placements while the catalog stays
			// untouched. (The paper: store the derivation if expansion
			// is real-time; here we expand eagerly and keep the
			// encoding private.)
			v, err := db.Expand(comp.ID)
			if err == nil {
				it, track, err = catalog.Encode(blob.NewMemStore(), v, catalog.IngestOptions{})
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
		sources[ci] = source{it: it, track: track}
		reports[ci] = TrackReport{Track: comp.Name}
		offsetSec := spec.Time.Seconds(cref.Start)
		tsys := tr.MediaType().Time
		for i := 0; i < tr.Len(); i++ {
			el := tr.Stream().At(i)
			sec := tsys.Seconds(el.Start) + offsetSec
			if sec < opts.From || (opts.To > 0 && sec >= opts.To) {
				continue
			}
			sched = append(sched, scheduled{
				track:    track,
				trackIdx: ci,
				index:    i,
				deadline: time.Duration(sec / opts.speed() * float64(time.Second)),
			})
		}
	}
	if len(sched) == 0 {
		return Report{}, ErrNoTracks
	}

	// Run the merged schedule with per-component skew bookkeeping.
	var maxSkew time.Duration
	rep := Report{Tracks: reports}
	sort.SliceStable(sched, func(a, b int) bool { return sched[a].deadline < sched[b].deadline })
	for _, s := range sched {
		src := sources[s.trackIdx]
		layers, err := src.it.PayloadLayers(s.track, s.index, compositionLayer(src.it, s, opts.MaxLayer))
		if err != nil {
			return rep, err
		}
		var payload []byte
		for _, l := range layers {
			payload = append(payload, l...)
		}
		clock.Advance(time.Duration(len(payload)) * opts.WorkPerByte)
		actual := clock.WaitUntil(s.deadline)
		ev := Event{Track: reports[s.trackIdx].Track, Index: s.index, Deadline: s.deadline, Actual: actual, Payload: payload}
		if err := sink.Deliver(ev); err != nil {
			return rep, fmt.Errorf("%w: %v", ErrStopped, err)
		}
		r := &reports[s.trackIdx]
		r.Events++
		r.Bytes += int64(len(payload))
		if j := ev.Jitter(); j > 0 {
			r.SumJitter += j
			if j > r.MaxJitter {
				r.MaxJitter = j
			}
		}
		lastDelivery[s.trackIdx] = actual

		// Skew against sync partners: compare lateness (actual -
		// deadline) between constrained components.
		for _, sc := range spec.Syncs {
			var other int
			switch s.trackIdx {
			case sc.A:
				other = sc.B
			case sc.B:
				other = sc.A
			default:
				continue
			}
			if reports[other].Events == 0 {
				continue
			}
			skew := ev.Jitter() - reports[other].MaxJitter
			if skew < 0 {
				skew = -skew
			}
			if skew > maxSkew {
				maxSkew = skew
			}
		}
	}
	rep.Duration = clock.Now()
	rep.MaxSkew = maxSkew
	return rep, nil
}

func compositionLayer(it *interp.Interpretation, s scheduled, maxLayer int) int {
	if maxLayer < 0 {
		return -1
	}
	tr, err := it.Track(s.track)
	if err != nil {
		return -1
	}
	if n := tr.Layers(s.index); maxLayer >= n {
		return n - 1
	}
	return maxLayer
}
