// Package compose implements composition (Definition 7 of Gibbs et
// al., SIGMOD 1994): "the specification of temporal and/or spatial
// relationships between a group of media objects. The result of
// composition is called a multimedia object, the spatiotemporally
// related objects are called its components."
//
// A Multimedia object places components on its own time axis (temporal
// composition) and optionally in a 2-D layout (spatial composition).
// Timeline computation reproduces diagrams like the paper's Figure 4b.
package compose

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"timedmedia/internal/media"
	"timedmedia/internal/timebase"
)

// Errors.
var (
	ErrBadComponent = errors.New("compose: invalid component")
	ErrBadStart     = errors.New("compose: negative start offset")
	ErrNoComponent  = errors.New("compose: no such component")
	ErrBadRegion    = errors.New("compose: invalid spatial region")
	ErrBadSkew      = errors.New("compose: sync constraint skew must be non-negative")
)

// Component describes one media object being composed: its name, kind,
// native time system and duration in its own ticks. (The catalog binds
// names to stored objects; compose is independent of storage.)
type Component struct {
	Name     string
	Kind     media.Kind
	Rate     timebase.System
	Duration int64
}

// Region is a spatial placement: position, size and stacking order —
// "placing an image within a page of text or placing graphical objects
// in a scene".
type Region struct {
	X, Y, W, H, Z int
}

// Placed is a component bound to the multimedia object's time axis
// (and optionally to a region).
type Placed struct {
	Component
	// Start is the offset on the multimedia object's time axis, in
	// ticks of the object's time system.
	Start int64
	// Spatial is nil for purely temporal composition.
	Spatial *Region
}

// EndTicks returns the component's end on the multimedia axis.
func (p Placed) EndTicks(axis timebase.System) (int64, error) {
	d, err := timebase.Rescale(p.Duration, p.Rate, axis)
	if err != nil {
		return 0, err
	}
	return p.Start + d, nil
}

// SyncConstraint requires two components to stay within MaxSkew ticks
// of relative drift during playback — the "temporal correlations"
// whose specification (not enforcement) is the data model's job.
type SyncConstraint struct {
	A, B    int // component indices
	MaxSkew int64
}

// Multimedia is a multimedia object: a named set of placed components
// over one time system.
type Multimedia struct {
	Name string
	Time timebase.System

	comps []Placed
	syncs []SyncConstraint
}

// New creates an empty multimedia object on the given time axis
// (milliseconds are customary for editing).
func New(name string, axis timebase.System) *Multimedia {
	return &Multimedia{Name: name, Time: axis}
}

// Add places a component at start (ticks of the object's axis),
// returning its index.
func (m *Multimedia) Add(c Component, start int64) (int, error) {
	return m.AddSpatial(c, start, nil)
}

// AddSpatial places a component temporally and spatially.
func (m *Multimedia) AddSpatial(c Component, start int64, region *Region) (int, error) {
	if c.Name == "" || !c.Rate.Valid() || c.Duration < 0 {
		return 0, fmt.Errorf("%w: %+v", ErrBadComponent, c)
	}
	if start < 0 {
		return 0, fmt.Errorf("%w: %d", ErrBadStart, start)
	}
	if region != nil && (region.W <= 0 || region.H <= 0) {
		return 0, fmt.Errorf("%w: %+v", ErrBadRegion, *region)
	}
	m.comps = append(m.comps, Placed{Component: c, Start: start, Spatial: region})
	return len(m.comps) - 1, nil
}

// Sync records a synchronization constraint between two components.
func (m *Multimedia) Sync(a, b int, maxSkew int64) error {
	if a < 0 || a >= len(m.comps) || b < 0 || b >= len(m.comps) {
		return ErrNoComponent
	}
	if maxSkew < 0 {
		return ErrBadSkew
	}
	m.syncs = append(m.syncs, SyncConstraint{A: a, B: b, MaxSkew: maxSkew})
	return nil
}

// Syncs returns the declared synchronization constraints.
func (m *Multimedia) Syncs() []SyncConstraint { return append([]SyncConstraint(nil), m.syncs...) }

// Len returns the number of components.
func (m *Multimedia) Len() int { return len(m.comps) }

// At returns component i.
func (m *Multimedia) At(i int) (Placed, error) {
	if i < 0 || i >= len(m.comps) {
		return Placed{}, ErrNoComponent
	}
	return m.comps[i], nil
}

// Components returns a copy of all placed components.
func (m *Multimedia) Components() []Placed { return append([]Placed(nil), m.comps...) }

// Duration returns the multimedia object's span end in axis ticks.
func (m *Multimedia) Duration() (int64, error) {
	var end int64
	for _, p := range m.comps {
		e, err := p.EndTicks(m.Time)
		if err != nil {
			return 0, err
		}
		if e > end {
			end = e
		}
	}
	return end, nil
}

// Span is one timeline row.
type Span struct {
	Name  string `json:"name"`
	Start int64  `json:"start"` // axis ticks
	End   int64  `json:"end"`
}

// Timeline returns spans sorted by start then name — the data behind
// Figure 4b.
func (m *Multimedia) Timeline() ([]Span, error) {
	out := make([]Span, 0, len(m.comps))
	for _, p := range m.comps {
		e, err := p.EndTicks(m.Time)
		if err != nil {
			return nil, err
		}
		out = append(out, Span{Name: p.Name, Start: p.Start, End: e})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		return out[a].Name < out[b].Name
	})
	return out, nil
}

// ActiveAt returns the names of components active at axis tick t.
func (m *Multimedia) ActiveAt(t int64) ([]string, error) {
	spans, err := m.Timeline()
	if err != nil {
		return nil, err
	}
	var names []string
	for _, s := range spans {
		if s.Start <= t && t < s.End {
			names = append(names, s.Name)
		}
	}
	return names, nil
}

// Relation names the Allen interval relation from component a to
// component b (a subset sufficient for media work: before, meets,
// overlaps, starts, during, finishes, equals, plus the inverses
// rendered by swapping).
func (m *Multimedia) Relation(a, b int) (string, error) {
	if a < 0 || a >= len(m.comps) || b < 0 || b >= len(m.comps) {
		return "", ErrNoComponent
	}
	sa, ea, err := m.spanOf(a)
	if err != nil {
		return "", err
	}
	sb, eb, err := m.spanOf(b)
	if err != nil {
		return "", err
	}
	switch {
	case sa == sb && ea == eb:
		return "equals", nil
	case ea < sb:
		return "before", nil
	case ea == sb:
		return "meets", nil
	case eb < sa:
		return "after", nil
	case eb == sa:
		return "met-by", nil
	case sa == sb:
		if ea < eb {
			return "starts", nil
		}
		return "started-by", nil
	case ea == eb:
		if sa > sb {
			return "finishes", nil
		}
		return "finished-by", nil
	case sa > sb && ea < eb:
		return "during", nil
	case sa < sb && ea > eb:
		return "contains", nil
	case sa < sb:
		return "overlaps", nil
	default:
		return "overlapped-by", nil
	}
}

func (m *Multimedia) spanOf(i int) (start, end int64, err error) {
	p := m.comps[i]
	e, err := p.EndTicks(m.Time)
	if err != nil {
		return 0, 0, err
	}
	return p.Start, e, nil
}

// RenderTimeline draws an ASCII timeline in the spirit of Figure 4b,
// with one row per component and a tick ruler in axis units.
func (m *Multimedia) RenderTimeline(width int) (string, error) {
	if width < 20 {
		width = 60
	}
	spans, err := m.Timeline()
	if err != nil {
		return "", err
	}
	total, err := m.Duration()
	if err != nil {
		return "", err
	}
	if total == 0 {
		return "(empty)\n", nil
	}
	nameW := 0
	for _, s := range spans {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	var b strings.Builder
	for i := len(spans) - 1; i >= 0; i-- { // top row = latest, like Fig 4b
		s := spans[i]
		from := int(s.Start * int64(width) / total)
		to := int(s.End * int64(width) / total)
		if to <= from {
			to = from + 1
		}
		fmt.Fprintf(&b, "%-*s |%s%s%s|\n", nameW, s.Name,
			strings.Repeat(" ", from), strings.Repeat("=", to-from), strings.Repeat(" ", width-to))
	}
	fmt.Fprintf(&b, "%-*s  0%*d ticks (%s)\n", nameW, "", width-1, total, m.Time)
	return b.String(), nil
}
