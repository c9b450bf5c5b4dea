package catalog

import (
	"context"
	"fmt"
	"sort"

	"timedmedia/internal/compose"
	"timedmedia/internal/core"
	"timedmedia/internal/frame"
	"timedmedia/internal/media"
	"timedmedia/internal/timebase"
)

// RenderCompositionFrame rasterizes a multimedia object's spatial
// composition at axis tick t: every video or image component active at
// t is drawn into a w×h canvas at its Region (scaled to the region,
// stacked by Z; components without a region fill the canvas). This is
// the presentation-side meaning of spatial composition — "placing an
// image within a page of text or placing graphical objects in a
// scene."
func (db *DB) RenderCompositionFrame(id core.ID, t int64, w, h int) (*frame.Frame, error) {
	v := db.CurrentView()
	obj, err := v.Get(id)
	if err != nil {
		return nil, err
	}
	if obj.Class != core.ClassMultimedia {
		return nil, fmt.Errorf("%w: %v", ErrNotComposite, id)
	}
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("catalog: canvas must have positive size")
	}
	canvas := frame.New(w, h, media.ColorRGB)

	type layer struct {
		f       *frame.Frame
		region  *compose.Region
		z       int
		ordinal int
	}
	var layers []layer
	for ci, cref := range obj.Multimedia.Components {
		comp, err := v.Get(cref.Object)
		if err != nil {
			return nil, err
		}
		if comp.Kind != media.KindVideo && comp.Kind != media.KindImage {
			continue
		}
		val, err := v.expand(context.Background(), cref.Object)
		if err != nil {
			return nil, err
		}
		var f *frame.Frame
		switch comp.Kind {
		case media.KindImage:
			f = val.Image
		case media.KindVideo:
			// Local tick of this component at axis time t.
			local, err := timebase.Rescale(t-cref.Start, obj.Multimedia.Time, val.Rate)
			if err != nil {
				return nil, err
			}
			if t < cref.Start || local >= int64(len(val.Video)) {
				continue // not active at t
			}
			f = val.Video[local]
		}
		z := 0
		if cref.Region != nil {
			z = cref.Region.Z
		}
		layers = append(layers, layer{f: f, region: cref.Region, z: z, ordinal: ci})
	}
	sort.SliceStable(layers, func(a, b int) bool {
		if layers[a].z != layers[b].z {
			return layers[a].z < layers[b].z
		}
		return layers[a].ordinal < layers[b].ordinal
	})
	for _, l := range layers {
		x, y, lw, lh := 0, 0, w, h
		if l.region != nil {
			x, y, lw, lh = l.region.X, l.region.Y, l.region.W, l.region.H
		}
		if err := frame.DrawScaled(canvas, l.f, x, y, lw, lh); err != nil {
			return nil, err
		}
	}
	return canvas, nil
}
