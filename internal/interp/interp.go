// Package interp implements interpretation (Definition 5 of Gibbs et
// al., SIGMOD 1994): the mapping from a BLOB to a set of media
// objects. For each media object (here called a track) the
// interpretation records the media descriptor and, per element, its
// order within the sequence, start time, duration, element descriptor,
// and placement in the BLOB.
//
// Following Section 4.1, an interpretation is built up while the BLOB
// is captured or created, then sealed and permanently associated with
// the BLOB; editing and alternative views are achieved with derivation
// and composition, never by rewriting a sealed interpretation. Only
// read-only *views* (track subsets) can be derived from a sealed
// interpretation.
//
// The indexes the implementation maintains (see index.go) are not
// visible to applications — "what needs be visible are the results of
// interpretation — the media elements and their descriptors."
package interp

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"timedmedia/internal/blob"
	"timedmedia/internal/media"
	"timedmedia/internal/stream"
)

// Errors.
var (
	ErrSealed        = errors.New("interp: interpretation is sealed")
	ErrNotSealed     = errors.New("interp: interpretation is not sealed yet")
	ErrDupTrack      = errors.New("interp: duplicate track name")
	ErrNoTrack       = errors.New("interp: no such track")
	ErrNoElement     = errors.New("interp: no such element")
	ErrNoLayer       = errors.New("interp: no such layer")
	ErrOverlap       = errors.New("interp: element placements overlap")
	ErrBeyondBlob    = errors.New("interp: placement extends beyond BLOB")
	ErrMisplaced     = errors.New("interp: BLOB placed appended bytes elsewhere")
	ErrBadDescriptor = errors.New("interp: invalid media descriptor")
)

// Placement locates one element payload (or one layer of it) within
// the BLOB.
type Placement struct {
	Offset int64
	Size   int64
}

// End returns Offset+Size.
func (p Placement) End() int64 { return p.Offset + p.Size }

// elemRec is the builder-side record for one element: the logical
// tuple plus its physical placements (index 0 = base layer).
type elemRec struct {
	el     stream.Element
	layers []Placement
}

// Builder constructs an interpretation while media is captured into a
// BLOB. Append methods place payloads at the BLOB's logical end (Size)
// and record their placements. The bytes are held until Seal, or until
// maxHeld of them have gathered, and reach the BLOB in one append; a
// payload of maxHeld bytes or more goes straight through. So a capture
// costs one BLOB append per MiB, not one per element. Every write
// checks that the BLOB put the bytes where the placements say
// (ErrMisplaced otherwise), so nothing else may append to the BLOB
// while the builder is open. Seal then validates everything and
// freezes the result.
type Builder struct {
	b      blob.BLOB
	id     blob.ID
	tracks map[string]*trackBuilder
	order  []string
	held   []byte // placed bytes not yet written: the last len(held) before end
	end    int64  // the logical end: the BLOB's size plus len(held)
	err    error
}

// maxHeld bounds the bytes a Builder holds between writes.
const maxHeld = 1 << 20

// heldBufs recycles the buffers Builders hold bytes in: growing one
// per capture by append would copy a clip's bytes many times over.
var heldBufs = sync.Pool{New: func() any { b := make([]byte, 0, maxHeld); return &b }}

type trackBuilder struct {
	typ   *media.Type
	desc  media.Descriptor
	elems []elemRec
}

// NewBuilder starts an interpretation of the given BLOB.
func NewBuilder(id blob.ID, b blob.BLOB) *Builder {
	return &Builder{b: b, id: id, end: b.Size(), tracks: map[string]*trackBuilder{}}
}

// Size returns the BLOB's logical end: its length once every byte
// appended so far has been written.
func (bu *Builder) Size() int64 { return bu.end }

// place puts data at the logical end and returns its offset.
func (bu *Builder) place(data []byte) int64 {
	off := bu.end
	if len(bu.held)+len(data) > maxHeld {
		bu.flush()
	}
	if len(data) >= maxHeld {
		bu.write(data, off)
	} else {
		if bu.held == nil {
			bu.held = (*heldBufs.Get().(*[]byte))[:0]
		}
		bu.held = append(bu.held, data...)
	}
	bu.end += int64(len(data))
	return off
}

// flush writes the held bytes.
func (bu *Builder) flush() {
	if len(bu.held) > 0 {
		bu.write(bu.held, bu.end-int64(len(bu.held)))
		bu.held = bu.held[:0]
	}
}

// write appends data to the BLOB, which must put it at want.
func (bu *Builder) write(data []byte, want int64) {
	if bu.err != nil {
		return
	}
	off, err := bu.b.Append(data)
	switch {
	case err != nil:
		bu.err = err
	case off != want:
		bu.err = fmt.Errorf("%w: %d bytes at %d, placed at %d", ErrMisplaced, len(data), off, want)
	}
}

// AddTrack declares a media object within the BLOB. The descriptor's
// duration may be zero; Seal fills it in from the element timing.
func (bu *Builder) AddTrack(name string, typ *media.Type, desc media.Descriptor) *Builder {
	if bu.err != nil {
		return bu
	}
	if _, dup := bu.tracks[name]; dup {
		bu.err = fmt.Errorf("%w: %q", ErrDupTrack, name)
		return bu
	}
	if desc == nil || typ == nil {
		bu.err = fmt.Errorf("%w: track %q", ErrBadDescriptor, name)
		return bu
	}
	bu.tracks[name] = &trackBuilder{typ: typ, desc: desc}
	bu.order = append(bu.order, name)
	return bu
}

// Append places payload in the BLOB as the next element of track,
// with the given presentation start and duration. Elements may be
// appended in storage order that differs from presentation order
// (vmpg); Seal sorts the logical view by start time while the
// physical decode order is preserved in the decode-order index.
func (bu *Builder) Append(track string, payload []byte, start, dur int64, desc media.ElementDescriptor) *Builder {
	return bu.AppendLayered(track, [][]byte{payload}, start, dur, desc)
}

// AppendLayered places a multi-layer element (layer 0 = base, then
// enhancements). Scaled playback reads a prefix of the layers.
func (bu *Builder) AppendLayered(track string, layers [][]byte, start, dur int64, desc media.ElementDescriptor) *Builder {
	if bu.err != nil {
		return bu
	}
	tb, ok := bu.tracks[track]
	if !ok {
		bu.err = fmt.Errorf("%w: %q", ErrNoTrack, track)
		return bu
	}
	if len(layers) == 0 {
		bu.err = fmt.Errorf("interp: element with no layers in track %q", track)
		return bu
	}
	rec := elemRec{el: stream.Element{Start: start, Dur: dur, Desc: desc}}
	for _, data := range layers {
		off := bu.place(data)
		rec.layers = append(rec.layers, Placement{Offset: off, Size: int64(len(data))})
		rec.el.Size += int64(len(data))
	}
	tb.elems = append(tb.elems, rec)
	return bu
}

// Pad places n zero bytes in the BLOB without recording any element —
// the padding used "to match storage transfer rates to media data
// rates" (CD-I). Interpretations simply skip padded regions.
func (bu *Builder) Pad(n int) *Builder {
	if bu.err == nil && n > 0 {
		bu.place(make([]byte, n))
	}
	return bu
}

// Seal writes the held bytes, then validates and freezes the
// interpretation.
func (bu *Builder) Seal() (*Interpretation, error) {
	bu.flush()
	if bu.held != nil {
		buf := bu.held[:0]
		heldBufs.Put(&buf)
		bu.held = nil
	}
	if bu.err != nil {
		return nil, bu.err
	}
	it := &Interpretation{b: bu.b, blobID: bu.id, tracks: map[string]*Track{}, order: append([]string(nil), bu.order...)}
	for name, tb := range bu.tracks {
		tr, err := buildTrack(name, tb, bu.b.Size())
		if err != nil {
			return nil, err
		}
		it.tracks[name] = tr
	}
	runs := make([]ExportedTrack, 0, len(it.order))
	for _, name := range it.order {
		runs = append(runs, ExportedTrack{Name: name, Runs: packRuns(it.tracks[name])})
	}
	if err := checkOverlaps(runs); err != nil {
		return nil, err
	}
	return it, nil
}

// buildTrack sorts elements into presentation order, derives indexes,
// and validates the stream against its media type.
func buildTrack(name string, tb *trackBuilder, blobSize int64) (*Track, error) {
	n := len(tb.elems)
	// Storage order = append order. Presentation order = by start,
	// ties broken by append order (stable).
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return tb.elems[perm[a]].el.Start < tb.elems[perm[b]].el.Start })

	elems := make([]stream.Element, n)
	layers := make([][]Placement, n)
	storageOf := make([]int, n) // presentation index -> storage index
	for p, s := range perm {
		elems[p] = tb.elems[s].el
		layers[p] = tb.elems[s].layers
		storageOf[p] = s
	}
	str, err := stream.New(tb.typ, elems)
	if err != nil {
		return nil, fmt.Errorf("interp: track %q: %w", name, err)
	}
	for i, ls := range layers {
		for _, pl := range ls {
			if pl.End() > blobSize {
				return nil, fmt.Errorf("%w: track %q element %d", ErrBeyondBlob, name, i)
			}
		}
	}
	tr := &Track{name: name, typ: tb.typ, desc: tb.desc, str: str, layers: layers, storageOf: storageOf}
	tr.buildIndexes()
	return tr, nil
}

// Interpretation is a sealed, immutable mapping from one BLOB to its
// media objects.
type Interpretation struct {
	b      blob.BLOB
	blobID blob.ID
	tracks map[string]*Track
	order  []string
}

// BlobID returns the interpreted BLOB's identity.
func (it *Interpretation) BlobID() blob.ID { return it.blobID }

// BlobSize returns the BLOB's size in bytes.
func (it *Interpretation) BlobSize() int64 { return it.b.Size() }

// TrackNames lists tracks in declaration order.
func (it *Interpretation) TrackNames() []string { return append([]string(nil), it.order...) }

// Track returns the named track.
func (it *Interpretation) Track(name string) (*Track, error) {
	tr, ok := it.tracks[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTrack, name)
	}
	return tr, nil
}

// MustTrack is Track but panics; for tests and examples.
func (it *Interpretation) MustTrack(name string) *Track {
	tr, err := it.Track(name)
	if err != nil {
		panic(err)
	}
	return tr
}

// Payload reads the full payload (all layers concatenated in layer
// order) of element i of the named track.
func (it *Interpretation) Payload(track string, i int) ([]byte, error) {
	layers, err := it.PayloadLayers(track, i, -1)
	if err != nil {
		return nil, err
	}
	if len(layers) == 1 {
		return layers[0], nil
	}
	var out []byte
	for _, l := range layers {
		out = append(out, l...)
	}
	return out, nil
}

// PayloadLayers reads layers 0..maxLayer of element i (maxLayer < 0
// means all layers). Reading fewer layers is the paper's scalability:
// "bandwidth can be saved ... by ignoring parts of the storage unit."
func (it *Interpretation) PayloadLayers(track string, i, maxLayer int) ([][]byte, error) {
	tr, err := it.Track(track)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= tr.str.Len() {
		return nil, fmt.Errorf("%w: %q[%d]", ErrNoElement, track, i)
	}
	ls := tr.layers[i]
	last := len(ls) - 1
	if maxLayer >= 0 {
		if maxLayer > last {
			return nil, fmt.Errorf("%w: %q[%d] layer %d of %d", ErrNoLayer, track, i, maxLayer, len(ls))
		}
		last = maxLayer
	}
	out := make([][]byte, 0, last+1)
	for _, pl := range ls[:last+1] {
		data, err := it.b.ReadSpan(pl.Offset, pl.Size)
		if err != nil {
			return nil, err
		}
		out = append(out, data)
	}
	return out, nil
}

// prog is the arithmetic progression of byte spans one layer of one run
// claims: n of them, the next [off, off+size) and belonging to element
// elem of track.
type prog struct {
	off, size, stride int64
	n                 int
	track             string
	elem              int
}

// checkOverlaps verifies that no two element layers across all tracks
// claim the same bytes. It visits the spans in offset order by merging
// the runs' progressions: a stretch of one run that no other run's
// extent reaches into is passed in one step, and only where extents
// interleave (tracks interleaved in one BLOB) does it go element by
// element. It allocates per run, never per element.
func checkOverlaps(tracks []ExportedTrack) error {
	var progs []prog
	for _, et := range tracks {
		elem := 0
		for _, r := range et.Runs {
			for _, lr := range r.Layers {
				if lr.Len > 0 {
					progs = append(progs, prog{lr.Offset, lr.Len, lr.Len + lr.Gap, r.N, et.Name, elem})
				}
			}
			elem += r.N
		}
	}
	slices.SortFunc(progs, func(a, b prog) int { return cmp.Compare(a.off, b.off) })
	var active []prog // begun and not yet exhausted
	var lastEnd int64 // where the span visited last ends, and whose it is
	var lastTrack string
	var lastElem int
	for next := 0; next < len(progs) || len(active) > 0; {
		// m has the first unvisited span among the active; no other
		// unvisited span begins before limit.
		m, limit := -1, int64(math.MaxInt64)
		for i := range active {
			if m < 0 || active[i].off < active[m].off {
				m = i
			}
		}
		if next < len(progs) {
			limit = progs[next].off
		}
		for i := range active {
			if i != m {
				limit = min(limit, active[i].off)
			}
		}
		if m < 0 || limit < active[m].off {
			active = append(active, progs[next])
			next++
			continue
		}
		p := &active[m]
		if p.off < lastEnd {
			return fmt.Errorf("%w: %s[%d] and %s[%d]", ErrOverlap, lastTrack, lastElem, p.track, p.elem)
		}
		// Pass every span of p that begins before limit: within a run
		// stride >= size keeps them apart.
		k := 1
		if p.n > 1 && limit > p.off {
			k = int(min(int64(p.n), (limit-1-p.off)/p.stride+1))
		}
		lastEnd, lastTrack, lastElem = p.off+int64(k-1)*p.stride+p.size, p.track, p.elem+k-1
		if p.n -= k; p.n == 0 {
			active[m] = active[len(active)-1]
			active = active[:len(active)-1]
			continue
		}
		p.off += int64(k) * p.stride
		p.elem += k
	}
	return nil
}

// String summarizes the interpretation like Figure 2's caption.
func (it *Interpretation) String() string {
	s := fmt.Sprintf("interpretation of %v (%d B):", it.blobID, it.BlobSize())
	for _, name := range it.order {
		tr := it.tracks[name]
		s += fmt.Sprintf(" %s=%v", name, tr.str)
	}
	return s
}
