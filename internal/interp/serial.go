package interp

import (
	"fmt"
	"math"

	"timedmedia/internal/blob"
	"timedmedia/internal/media"
	"timedmedia/internal/stream"
)

// Serializable forms for persistence, laid out in bytes by layout.go.
// Exporting and re-importing an interpretation preserves element
// timing, descriptors, placements, layers and decode order exactly.

// LayerRun places one layer of a run's elements: element k's payload
// is the Len bytes at Offset + k*(Len+Gap). Gap is zero when the
// elements are contiguous, and otherwise what lies between them: other
// tracks' elements, further layers, padding.
type LayerRun struct {
	Offset, Len, Gap int64
}

// Run is N elements, consecutive in presentation order, that Figure 1
// lets a system compute instead of look up: one duration, element
// descriptor and size (the sum of its layers' Len), element k starting
// at Start + k*(Dur+Gap), each layer placed arithmetically, and storage
// index StorageIndex + k. Gap is zero when the run is continuous, so a
// track whose only run has Gap == 0 and Dur > 0 is what stream.Classify
// calls uniform and continuous. An element nothing else fits is a run
// of one with no gaps. A run of more than one element has no empty
// placement, so the BLOB's size bounds N.
type Run struct {
	N               int
	Start, Dur, Gap int64
	Desc            media.ElementDescriptor
	Layers          []LayerRun
	StorageIndex    int
}

// ExportedTrack is the serializable form of a track: its runs in
// presentation order.
type ExportedTrack struct {
	Name string
	Type media.TypeSpec
	Desc media.Descriptor
	Runs []Run
}

// Exported is the serializable form of an interpretation: its tracks
// in the order they were added.
type Exported struct {
	BlobID blob.ID
	Tracks []ExportedTrack
}

// Export converts a sealed interpretation to its serializable form.
func Export(it *Interpretation) *Exported {
	out := &Exported{BlobID: it.blobID, Tracks: make([]ExportedTrack, len(it.order))}
	for i, name := range it.order {
		tr := it.tracks[name]
		out.Tracks[i] = ExportedTrack{Name: name, Type: tr.typ.Spec(), Desc: tr.desc, Runs: packRuns(tr)}
	}
	return out
}

// packRuns packs a track's tables into runs, greedily and in one pass.
func packRuns(tr *Track) []Run {
	var runs []Run
	for i, ls := range tr.layers {
		el, st := tr.str.At(i), tr.storageOf[i]
		if n := len(runs); n > 0 && runs[n-1].take(el, ls, st) {
			continue
		}
		r := Run{N: 1, Start: el.Start, Dur: el.Dur, Desc: el.Desc, Layers: make([]LayerRun, len(ls)), StorageIndex: st}
		for l, pl := range ls {
			r.Layers[l] = LayerRun{Offset: pl.Offset, Len: pl.Size}
		}
		runs = append(runs, r)
	}
	return runs
}

// take extends r by the element after its last if that element
// continues r's arithmetic; the second element of a run fixes its gaps.
func (r *Run) take(el stream.Element, ls []Placement, st int) bool {
	if el.Dur != r.Dur || el.Desc != r.Desc || len(ls) != len(r.Layers) || st != r.StorageIndex+r.N {
		return false
	}
	if r.N > 1 && el.Start != r.Start+int64(r.N)*(r.Dur+r.Gap) {
		return false
	}
	for l, pl := range ls {
		lr := r.Layers[l]
		d := pl.Offset - lr.Offset
		if pl.Size != lr.Len || pl.Size == 0 || d < lr.Len || (r.N > 1 && d != int64(r.N)*(lr.Len+lr.Gap)) {
			return false
		}
	}
	if r.N == 1 {
		r.Gap = el.Start - r.Start - r.Dur
		for l, pl := range ls {
			r.Layers[l].Gap = pl.Offset - r.Layers[l].Offset - r.Layers[l].Len
		}
	}
	r.N++
	return true
}

// check validates the arithmetic of the track's runs against the BLOB
// size. A record read back from disk is outside input, and a run's N is
// not bounded by the record's own length: nothing of size N may be
// allocated before this and checkOverlaps have passed, after which the
// BLOB's bytes bound the element and placement counts.
func (et *ExportedTrack) check(size int64) error {
	elems := 0
	for _, r := range et.Runs {
		if r.N < 1 || r.N > math.MaxInt-elems || r.Dur < 0 || r.Gap < -r.Dur || r.Gap > math.MaxInt64-r.Dur || len(r.Layers) == 0 {
			return fmt.Errorf("interp: track %q element %d: run of %d elements, duration %d, gap %d, %d layers", et.Name, elems, r.N, r.Dur, r.Gap, len(r.Layers))
		}
		more := int64(r.N - 1)
		if more > 0 && r.Dur+r.Gap > (math.MaxInt64-max(r.Start, 0))/more {
			return fmt.Errorf("interp: track %q element %d: start times of a run of %d overflow", et.Name, elems, r.N)
		}
		for _, lr := range r.Layers {
			if lr.Offset < 0 || lr.Len < 0 || lr.Gap < 0 || lr.Gap > math.MaxInt64-lr.Len || (more > 0 && lr.Len == 0) {
				return fmt.Errorf("interp: track %q element %d: placement %+v in a run of %d", et.Name, elems, lr, r.N)
			}
			// The run's last element ends inside the BLOB; Len > 0 when
			// there is more than one.
			if lr.Len > size || lr.Offset > size-lr.Len || (more > 0 && more > (size-lr.Len-lr.Offset)/(lr.Len+lr.Gap)) {
				return fmt.Errorf("%w: track %q element %d", ErrBeyondBlob, et.Name, elems+r.N-1)
			}
		}
		elems += r.N
	}
	for _, r := range et.Runs {
		if r.StorageIndex < 0 || r.StorageIndex > elems-r.N {
			return fmt.Errorf("interp: track %q: storage indexes %d..%d out of range", et.Name, r.StorageIndex, r.StorageIndex+r.N-1)
		}
	}
	return nil
}

// Import reconstructs an interpretation over the given BLOB.
func Import(rec *Exported, b blob.BLOB) (*Interpretation, error) {
	it := &Interpretation{b: b, blobID: rec.BlobID, tracks: make(map[string]*Track, len(rec.Tracks)), order: make([]string, len(rec.Tracks))}
	// One Size call per import: on a file BLOB it is an fstat under the
	// BLOB's mutex.
	size := b.Size()
	for t := range rec.Tracks {
		if err := rec.Tracks[t].check(size); err != nil {
			return nil, err
		}
	}
	if err := checkOverlaps(rec.Tracks); err != nil {
		return nil, err
	}
	for i, et := range rec.Tracks {
		if it.tracks[et.Name] != nil {
			return nil, fmt.Errorf("interp: the record holds track %q twice", et.Name)
		}
		if et.Desc == nil {
			return nil, fmt.Errorf("interp: track %q has no descriptor", et.Name)
		}
		typ, err := media.FromSpec(et.Type)
		if err != nil {
			return nil, fmt.Errorf("interp: track %q: %w", et.Name, err)
		}
		n, places := 0, 0
		for _, r := range et.Runs {
			n += r.N
			places += r.N * len(r.Layers)
		}
		// One slab per table, not one slice per element.
		elems := make([]stream.Element, 0, n)
		layers := make([][]Placement, 0, n)
		storageOf := make([]int, 0, n)
		slab := make([]Placement, 0, places)
		for _, r := range et.Runs {
			el := stream.Element{Start: r.Start, Dur: r.Dur, Desc: r.Desc}
			for _, lr := range r.Layers {
				el.Size += lr.Len
			}
			for k := 0; k < r.N; k++ {
				el.Start = r.Start + int64(k)*(r.Dur+r.Gap)
				elems = append(elems, el)
				storageOf = append(storageOf, r.StorageIndex+k)
				first := len(slab)
				for _, lr := range r.Layers {
					slab = append(slab, Placement{Offset: lr.Offset + int64(k)*(lr.Len+lr.Gap), Size: lr.Len})
				}
				layers = append(layers, slab[first:len(slab):len(slab)])
			}
		}
		str, err := stream.New(typ, elems)
		if err != nil {
			return nil, fmt.Errorf("interp: track %q: %w", et.Name, err)
		}
		tr := &Track{name: et.Name, typ: typ, desc: et.Desc, str: str, layers: layers, storageOf: storageOf}
		tr.buildIndexes()
		it.tracks[et.Name], it.order[i] = tr, et.Name
	}
	return it, nil
}
