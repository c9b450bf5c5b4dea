// Package core defines the unified object model of Gibbs et al.,
// SIGMOD 1994: media objects (non-derived and derived), derivation
// objects, and multimedia objects, related exactly as in the paper's
// Figure 4 instance diagram and stacked in the Figure 5 layers
//
//	multimedia object        — temporal/spatial composition
//	media objects (derived)  — derivation
//	media objects (non-der.) — interpretation
//	BLOB                     — uninterpreted bytes
//
// The package is pure schema: evaluation (expansion, playback,
// persistence) lives in catalog and player.
package core

import (
	"errors"
	"fmt"
	"strconv"

	"timedmedia/internal/blob"
	"timedmedia/internal/compose"
	"timedmedia/internal/media"
	"timedmedia/internal/timebase"
)

// ID identifies an object in a catalog.
type ID uint64

// String formats the ID as every summary line spells it: #N.
func (id ID) String() string { return "#" + strconv.FormatUint(uint64(id), 10) }

// Class discriminates the Figure 5 layers above the BLOB.
type Class int

// Object classes.
const (
	// ClassNonDerived is a media object bound to an interpretation
	// track (Figure 5's bottom media layer).
	ClassNonDerived Class = iota
	// ClassDerived is a media object defined by a derivation object.
	ClassDerived
	// ClassMultimedia is a composed multimedia object.
	ClassMultimedia
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassNonDerived:
		return "media object (non-derived)"
	case ClassDerived:
		return "media object (derived)"
	case ClassMultimedia:
		return "multimedia object"
	default:
		return "unknown"
	}
}

// Layer returns the Figure 5 layer number (BLOBs are layer 0).
func (c Class) Layer() int {
	switch c {
	case ClassNonDerived:
		return 1
	case ClassDerived:
		return 2
	case ClassMultimedia:
		return 3
	default:
		return -1
	}
}

// Derivation is a derivation object (Definition 6): "references to the
// media objects and parameter values used". It is deliberately tiny —
// storing it instead of the derived elements is the paper's storage
// and non-destructive-editing win.
type Derivation struct {
	// Op names the registered operator ("video-edit", ...).
	Op string
	// Inputs are the antecedent media objects, in operator argument
	// order.
	Inputs []ID
	// Params is the operator's JSON-encoded parameter record.
	Params []byte
}

// SizeBytes returns the derivation object's storage footprint.
func (d *Derivation) SizeBytes() int {
	return len(d.Op) + 8*len(d.Inputs) + len(d.Params)
}

// ComponentRef places a catalog object inside a multimedia object.
type ComponentRef struct {
	Object ID
	// Start is the offset on the multimedia object's axis.
	Start int64
	// Region is the optional spatial placement.
	Region *compose.Region
}

// MultimediaSpec is the stored form of a composition: the axis time
// system plus component references. The catalog materializes it into a
// compose.Multimedia with real durations on demand.
type MultimediaSpec struct {
	Time       timebase.System
	Components []ComponentRef
	Syncs      []compose.SyncConstraint
}

// Object is one catalog entry.
type Object struct {
	ID    ID
	Name  string
	Class Class
	// Kind is the media kind for media objects; KindUnknown for
	// multimedia objects.
	Kind media.Kind
	// Desc is the media descriptor (media objects only).
	Desc media.Descriptor
	// Attrs carries domain attributes (title, director, language, ...)
	// — the VideoClip-style attributes of Section 4's opening.
	Attrs map[string]string

	// Blob and Track bind non-derived objects to an interpretation.
	Blob  blob.ID
	Track string

	// Derivation defines derived objects.
	Derivation *Derivation

	// Multimedia defines composed objects.
	Multimedia *MultimediaSpec
}

// Clone returns a deep copy of the object: mutating the copy — its
// attribute map, derivation inputs/params, components or syncs — never
// aliases the original. The descriptor is shared: media.Descriptor
// implementations are immutable by contract.
func (o *Object) Clone() *Object {
	c := *o
	if o.Attrs != nil {
		c.Attrs = make(map[string]string, len(o.Attrs))
		for k, v := range o.Attrs {
			c.Attrs[k] = v
		}
	}
	if o.Derivation != nil {
		d := *o.Derivation
		d.Inputs = append([]ID(nil), o.Derivation.Inputs...)
		d.Params = append([]byte(nil), o.Derivation.Params...)
		c.Derivation = &d
	}
	if o.Multimedia != nil {
		m := MultimediaSpec{Time: o.Multimedia.Time}
		for _, comp := range o.Multimedia.Components {
			if comp.Region != nil {
				r := *comp.Region
				comp.Region = &r
			}
			m.Components = append(m.Components, comp)
		}
		m.Syncs = append([]compose.SyncConstraint(nil), o.Multimedia.Syncs...)
		c.Multimedia = &m
	}
	return &c
}

// Validation errors.
var (
	ErrNoName        = errors.New("core: object must be named")
	ErrBinding       = errors.New("core: class/binding mismatch")
	ErrNilDescriptor = errors.New("core: media object without descriptor")
)

// Validate checks structural consistency of the object record.
func (o *Object) Validate() error {
	if o.Name == "" {
		return ErrNoName
	}
	switch o.Class {
	case ClassNonDerived:
		if o.Blob == 0 || o.Track == "" {
			return fmt.Errorf("%w: non-derived object needs blob+track", ErrBinding)
		}
		if o.Derivation != nil || o.Multimedia != nil {
			return fmt.Errorf("%w: non-derived object with derivation/composition", ErrBinding)
		}
		if o.Desc == nil {
			return ErrNilDescriptor
		}
	case ClassDerived:
		if o.Derivation == nil {
			return fmt.Errorf("%w: derived object without derivation", ErrBinding)
		}
		if o.Blob != 0 || o.Track != "" || o.Multimedia != nil {
			return fmt.Errorf("%w: derived object with blob/composition binding", ErrBinding)
		}
		if o.Derivation.Op == "" || len(o.Derivation.Inputs) == 0 {
			return fmt.Errorf("%w: empty derivation", ErrBinding)
		}
	case ClassMultimedia:
		if o.Multimedia == nil || len(o.Multimedia.Components) == 0 {
			return fmt.Errorf("%w: multimedia object without components", ErrBinding)
		}
		if o.Blob != 0 || o.Derivation != nil {
			return fmt.Errorf("%w: multimedia object with media binding", ErrBinding)
		}
		if !o.Multimedia.Time.Valid() {
			return fmt.Errorf("%w: multimedia object without time axis", ErrBinding)
		}
	default:
		return fmt.Errorf("%w: class %d", ErrBinding, o.Class)
	}
	return nil
}

// String renders a one-line summary.
func (o *Object) String() string {
	switch o.Class {
	case ClassNonDerived:
		return fmt.Sprintf("%v %q [%s] ← %v/%s", o.ID, o.Name, o.Class, o.Blob, o.Track)
	case ClassDerived:
		return fmt.Sprintf("%v %q [%s] = %s%v", o.ID, o.Name, o.Class, o.Derivation.Op, o.Derivation.Inputs)
	default:
		n := 0
		if o.Multimedia != nil {
			n = len(o.Multimedia.Components)
		}
		return fmt.Sprintf("%v %q [%s] with %d components", o.ID, o.Name, o.Class, n)
	}
}
