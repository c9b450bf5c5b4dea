package interp

import (
	"fmt"

	"timedmedia/internal/blob"
	"timedmedia/internal/media"
	"timedmedia/internal/stream"
)

// Serializable forms for persistence (gob-encoded by the catalog).
// Exporting and re-importing an interpretation preserves element
// timing, descriptors, placements, layers and decode order exactly.

// ExportedElement is the serializable form of one element.
type ExportedElement struct {
	Start, Dur, Size int64
	Desc             media.ElementDescriptor
	Layers           []Placement
	StorageIndex     int
}

// ExportedTrack is the serializable form of a track.
type ExportedTrack struct {
	Name     string
	Type     media.TypeSpec
	Desc     ExportedDescriptor
	Elements []ExportedElement
}

// ExportedDescriptor carries any concrete media descriptor through
// gob without interface registration headaches.
type ExportedDescriptor struct {
	Video     *media.Video
	Audio     *media.Audio
	Image     *media.Image
	Music     *media.Music
	Animation *media.Animation
}

// WrapDescriptor boxes a descriptor.
func WrapDescriptor(d media.Descriptor) (ExportedDescriptor, error) {
	switch v := d.(type) {
	case *media.Video:
		return ExportedDescriptor{Video: v}, nil
	case *media.Audio:
		return ExportedDescriptor{Audio: v}, nil
	case *media.Image:
		return ExportedDescriptor{Image: v}, nil
	case *media.Music:
		return ExportedDescriptor{Music: v}, nil
	case *media.Animation:
		return ExportedDescriptor{Animation: v}, nil
	default:
		return ExportedDescriptor{}, fmt.Errorf("interp: unserializable descriptor %T", d)
	}
}

// Unwrap returns the boxed descriptor.
func (e ExportedDescriptor) Unwrap() (media.Descriptor, error) {
	switch {
	case e.Video != nil:
		return e.Video, nil
	case e.Audio != nil:
		return e.Audio, nil
	case e.Image != nil:
		return e.Image, nil
	case e.Music != nil:
		return e.Music, nil
	case e.Animation != nil:
		return e.Animation, nil
	default:
		return nil, fmt.Errorf("interp: empty exported descriptor")
	}
}

// Exported is the serializable form of an interpretation.
type Exported struct {
	BlobID blob.ID
	Order  []string
	Tracks []ExportedTrack
}

// Export converts a sealed interpretation to its serializable form.
func Export(it *Interpretation) (*Exported, error) {
	out := &Exported{BlobID: it.blobID, Order: append([]string(nil), it.order...)}
	for _, name := range it.order {
		tr := it.tracks[name]
		desc, err := WrapDescriptor(tr.desc)
		if err != nil {
			return nil, err
		}
		et := ExportedTrack{Name: name, Type: tr.typ.Spec(), Desc: desc}
		for i := 0; i < tr.str.Len(); i++ {
			el := tr.str.At(i)
			et.Elements = append(et.Elements, ExportedElement{
				Start: el.Start, Dur: el.Dur, Size: el.Size, Desc: el.Desc,
				Layers:       append([]Placement(nil), tr.layers[i]...),
				StorageIndex: tr.storageOf[i],
			})
		}
		out.Tracks = append(out.Tracks, et)
	}
	return out, nil
}

// Import reconstructs an interpretation over the given BLOB.
func Import(rec *Exported, b blob.BLOB) (*Interpretation, error) {
	it := &Interpretation{b: b, blobID: rec.BlobID, tracks: map[string]*Track{}, order: append([]string(nil), rec.Order...)}
	// One Size call per import: on a file BLOB it is an fstat under the
	// BLOB's mutex, and the loop below checks every placement against it.
	size := b.Size()
	for _, et := range rec.Tracks {
		typ, err := media.FromSpec(et.Type)
		if err != nil {
			return nil, fmt.Errorf("interp: track %q: %w", et.Name, err)
		}
		desc, err := et.Desc.Unwrap()
		if err != nil {
			return nil, fmt.Errorf("interp: track %q: %w", et.Name, err)
		}
		elems := make([]stream.Element, len(et.Elements))
		layers := make([][]Placement, len(et.Elements))
		storageOf := make([]int, len(et.Elements))
		for i, ee := range et.Elements {
			elems[i] = stream.Element{Start: ee.Start, Dur: ee.Dur, Size: ee.Size, Desc: ee.Desc}
			layers[i] = append([]Placement(nil), ee.Layers...)
			storageOf[i] = ee.StorageIndex
			// A record read back from disk is outside input: the index
			// builders below trust these two.
			if len(ee.Layers) == 0 || ee.StorageIndex < 0 || ee.StorageIndex >= len(et.Elements) {
				return nil, fmt.Errorf("interp: track %q element %d: no placement, or storage index %d out of range", et.Name, i, ee.StorageIndex)
			}
			for _, pl := range ee.Layers {
				if pl.End() > size {
					return nil, fmt.Errorf("%w: track %q element %d", ErrBeyondBlob, et.Name, i)
				}
			}
		}
		str, err := stream.New(typ, elems)
		if err != nil {
			return nil, fmt.Errorf("interp: track %q: %w", et.Name, err)
		}
		tr := &Track{name: et.Name, typ: typ, desc: desc, str: str, layers: layers, storageOf: storageOf}
		tr.buildIndexes()
		it.tracks[et.Name] = tr
	}
	for _, name := range it.order {
		if it.tracks[name] == nil {
			return nil, fmt.Errorf("interp: track order names %q, which the record does not hold", name)
		}
	}
	if err := it.checkOverlaps(); err != nil {
		return nil, err
	}
	return it, nil
}
