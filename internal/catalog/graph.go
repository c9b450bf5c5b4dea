package catalog

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"timedmedia/internal/compose"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
)

// BuildMultimedia materializes a multimedia object's composition into
// a compose.Multimedia with real component durations, enabling
// timeline queries (Figure 4b).
func (db *DB) BuildMultimedia(id core.ID) (*compose.Multimedia, error) {
	return db.CurrentView().BuildMultimedia(id)
}

// BuildMultimedia is DB.BuildMultimedia resolving in this view.
func (v *View) BuildMultimedia(id core.ID) (*compose.Multimedia, error) {
	obj, err := v.Get(id)
	if err != nil {
		return nil, err
	}
	if obj.Class != core.ClassMultimedia {
		return nil, fmt.Errorf("%w: %v", ErrNotComposite, id)
	}
	m := compose.New(obj.Name, obj.Multimedia.Time)
	for _, cref := range obj.Multimedia.Components {
		comp, err := v.Get(cref.Object)
		if err != nil {
			return nil, err
		}
		c, err := v.componentOf(comp)
		if err != nil {
			return nil, err
		}
		if _, err := m.AddSpatial(c, cref.Start, cref.Region); err != nil {
			return nil, err
		}
	}
	for _, s := range obj.Multimedia.Syncs {
		if err := m.Sync(s.A, s.B, s.MaxSkew); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// componentOf derives the compose.Component of a media object: from
// its descriptor when available, otherwise by expanding it.
func (v *View) componentOf(obj *core.Object) (compose.Component, error) {
	if obj.Class == core.ClassMultimedia {
		return compose.Component{}, fmt.Errorf("%w: nested multimedia objects are not supported", ErrNotMedia)
	}
	if obj.Desc != nil && obj.Desc.TimeSystem().Valid() {
		return compose.Component{
			Name:     obj.Name,
			Kind:     obj.Kind,
			Rate:     obj.Desc.TimeSystem(),
			Duration: obj.Desc.Duration(),
		}, nil
	}
	val, err := v.expand(context.Background(), obj.ID)
	if err != nil {
		return compose.Component{}, err
	}
	return compose.Component{Name: obj.Name, Kind: obj.Kind, Rate: val.Rate, Duration: val.DurationTicks()}, nil
}

// LineageNode is one entry of a Figure 5 layer walk.
type LineageNode struct {
	// Layer is the Figure 5 layer: 0 BLOB, 1 non-derived media,
	// 2 derived media, 3 multimedia.
	Layer int
	// Label describes the node ("blob-3", "videoF = video-transition[...]").
	Label string
	// Object is the catalog object (0 for BLOB nodes).
	Object core.ID
}

// Lineage walks an object down to its BLOBs, producing the Figure 5
// stack: "interpretation, derivation and composition give us a way of
// moving from simple, uninterpreted data, to complex multimedia
// aggregates." Nodes are reported top-down, deduplicated, ordered by
// layer then label.
func (db *DB) Lineage(id core.ID) ([]LineageNode, error) {
	return db.CurrentView().Lineage(id)
}

// Lineage is DB.Lineage resolving in this view.
func (v *View) Lineage(id core.ID) ([]LineageNode, error) {
	seen := map[string]LineageNode{}
	var visit func(id core.ID) error
	visit = func(id core.ID) error {
		obj, err := v.Get(id)
		if err != nil {
			return err
		}
		key := obj.ID.String()
		if _, done := seen[key]; done {
			return nil
		}
		switch obj.Class {
		case core.ClassNonDerived:
			seen[key] = LineageNode{Layer: 1, Label: fmt.Sprintf("%s ← interpretation of %v/%s", obj.Name, obj.Blob, obj.Track), Object: obj.ID}
			bkey := obj.Blob.String()
			seen[bkey] = LineageNode{Layer: 0, Label: obj.Blob.String()}
		case core.ClassDerived:
			seen[key] = LineageNode{Layer: 2, Label: fmt.Sprintf("%s = %s%v", obj.Name, obj.Derivation.Op, obj.Derivation.Inputs), Object: obj.ID}
			for _, in := range obj.Derivation.Inputs {
				if err := visit(in); err != nil {
					return err
				}
			}
		case core.ClassMultimedia:
			seen[key] = LineageNode{Layer: 3, Label: fmt.Sprintf("%s (multimedia, %d components)", obj.Name, len(obj.Multimedia.Components)), Object: obj.ID}
			for _, c := range obj.Multimedia.Components {
				if err := visit(c.Object); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := visit(id); err != nil {
		return nil, err
	}
	out := make([]LineageNode, 0, len(seen))
	for _, n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Layer != out[b].Layer {
			return out[a].Layer > out[b].Layer
		}
		return out[a].Label < out[b].Label
	})
	return out, nil
}

// InstanceDiagram renders an ASCII instance diagram in the spirit of
// Figure 4a: the object, its composition relationships, derivation
// objects and interpretations down to BLOBs.
func (db *DB) InstanceDiagram(id core.ID) (string, error) {
	return db.CurrentView().InstanceDiagram(id)
}

// InstanceDiagram is DB.InstanceDiagram resolving in this view.
func (v *View) InstanceDiagram(id core.ID) (string, error) {
	var b strings.Builder
	var render func(id core.ID, indent string) error
	render = func(id core.ID, indent string) error {
		obj, err := v.Get(id)
		if err != nil {
			return err
		}
		switch obj.Class {
		case core.ClassMultimedia:
			fmt.Fprintf(&b, "%s(%s)  [multimedia object]\n", indent, obj.Name)
			for i, c := range obj.Multimedia.Components {
				fmt.Fprintf(&b, "%s  <c%d: temporal composition @ %d>\n", indent, i+1, c.Start)
				if err := render(c.Object, indent+"    "); err != nil {
					return err
				}
			}
		case core.ClassDerived:
			fmt.Fprintf(&b, "%s(%s)  [derived media object]\n", indent, obj.Name)
			fmt.Fprintf(&b, "%s  <%s: derivation, params %d B>\n", indent, obj.Derivation.Op, len(obj.Derivation.Params))
			for _, in := range obj.Derivation.Inputs {
				if err := render(in, indent+"    "); err != nil {
					return err
				}
			}
		case core.ClassNonDerived:
			fmt.Fprintf(&b, "%s(%s)  [media object]\n", indent, obj.Name)
			fmt.Fprintf(&b, "%s  <interpretationOf>\n", indent)
			fmt.Fprintf(&b, "%s    ((%v : %s))\n", indent, obj.Blob, obj.Track)
		}
		return nil
	}
	if err := render(id, ""); err != nil {
		return "", err
	}
	return b.String(), nil
}

// SelectDuration creates a derived object selecting ticks [from, to)
// of a video object — the paper's "select a specific duration" query,
// answered non-destructively with an edit-list derivation.
func (db *DB) SelectDuration(id core.ID, name string, from, to int64) (core.ID, error) {
	params := derive.EncodeParams(derive.EditParams{Entries: []derive.EditEntry{{Input: 0, From: from, To: to}}})
	return db.AddDerived(name, "video-edit", []core.ID{id}, params, nil)
}

// FramesAtFidelity reads the encoded frames of a layered non-derived
// video object at reduced fidelity, touching only layers 0..maxLayer
// of the BLOB (maxLayer < 0 reads everything) — the paper's "retrieve
// frames at a specific visual fidelity." The result is frames ×
// layers; pass layer 0 to codec.VJPGDecodeBase, or layers 0 and 1 to
// codec.VJPGDecodeLayered.
func (db *DB) FramesAtFidelity(id core.ID, maxLayer int) ([][][]byte, error) {
	v := db.CurrentView()
	obj, err := v.Get(id)
	if err != nil {
		return nil, err
	}
	if obj.Class != core.ClassNonDerived {
		return nil, fmt.Errorf("%w: %v is not stored", ErrNotMedia, id)
	}
	it, err := v.Interpretation(obj.Blob)
	if err != nil {
		return nil, err
	}
	tr, err := it.Track(obj.Track)
	if err != nil {
		return nil, err
	}
	out := make([][][]byte, tr.Len())
	for i := range out {
		layers, err := it.PayloadLayers(obj.Track, i, maxLayer)
		if err != nil {
			return nil, err
		}
		out[i] = layers
	}
	return out, nil
}
