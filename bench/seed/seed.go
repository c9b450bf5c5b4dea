// Package seed builds each workload's catalog, deterministically from
// a seed, through public catalog calls — mutations on a fresh DB over
// a file store, then a full snapshot — so a run starts from a data
// directory the server recovers like any other.
//
// tbmctl ingest data cannot stand in: every clip it makes shares one
// timeline, so a live_at query returns all of them or none. Here the
// stored objects span the five media kinds with varied durations, the
// compositions are staggered along their axis, and attributes come in
// one skewed family (tag, Zipf over 50 values) and one selective
// family (reel, a fixed handful of members each), so every query
// shape the driver sends has a known, small, non-empty answer.
package seed

import (
	"fmt"
	"math"
	"sort"

	"timedmedia/bench/rng"
	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/codec"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
	"timedmedia/internal/frame"
	"timedmedia/internal/interp"
	"timedmedia/internal/media"
	"timedmedia/internal/music"
	"timedmedia/internal/timebase"
)

// Spec sizes one workload's catalog. Counts are objects, not bytes.
type Spec struct {
	// Clips are stored video objects with real vjpg payloads, all of
	// one shape — the workload's one fixed clip size. Streams,
	// element reads, expands and cuts go to these.
	Clips      int `json:"clips"`
	ClipFrames int `json:"clip_frames"`
	ClipW      int `json:"clip_w"`
	ClipH      int `json:"clip_h"`
	// ClipCuts are derived cuts of CutFrames frames over the clips —
	// what the expand op materializes.
	ClipCuts  int `json:"clip_cuts"`
	CutFrames int `json:"cut_frames"`
	// Meta are stored objects with tiny payloads across the five media
	// kinds; MetaCuts are cuts over the video ones. They are browsed
	// and queried, never decoded.
	Meta     int `json:"meta"`
	MetaCuts int `json:"meta_cuts"`
	// Comps are multimedia compositions, staggered along their axis.
	Comps int `json:"comps"`
	// Churn cuts are added and deleted again while the catalog grows:
	// they leave version chains and tombstones behind, which is what
	// an as_of read pays for.
	Churn int `json:"churn"`
	// FloorFrac places the version floor this far into the history
	// (0 puts it right after the first objects).
	FloorFrac float64 `json:"floor_frac"`
}

// Objects is the number of live objects the spec seeds.
func (s Spec) Objects() int {
	return s.Clips + s.ClipCuts + s.Meta + s.MetaCuts + s.Comps + 1 // +1: the floor marker
}

const (
	tracksPerBlob = 16
	batchSize     = 256
	reelSize      = 8  // members per reel attribute value
	tagValues     = 50 // Zipf-distributed tag attribute values
	rounds        = 16 // growth rounds after the early phase
	clipContents  = 4  // distinct encoded clip bodies, reused across clips
	// compBase is where the first composition starts on the axis, in
	// seconds — past the longest stored object, so a live_at probe
	// beyond it is answered by compositions alone.
	compBase    = 150.0
	compSpread  = 1800.0
	maxMetaSecs = 120
)

// Clip is a stored video object with real payloads.
type Clip struct {
	Name      string
	ElemBytes []int // payload size per element
	Bytes     int64 // sum of ElemBytes
}

// Cut is an expandable derived object.
type Cut struct {
	Name     string
	Elements int
}

// Query is one /v1/query parameter string with the row count it must
// return on the seeded catalog.
type Query struct {
	Params string
	Want   int
}

// Life is an object's transaction-time extent: visible to as_of reads
// at seqs in [Born, Died). Died 0 means still live.
type Life struct {
	Name string
	Born uint64
	Died uint64
}

// Manifest is what the driver needs to know about a seeded catalog to
// draw operations and to check every reply.
type Manifest struct {
	Objects int    // live objects (tbm_objects after recovery)
	Seq     uint64 // newest committed journal sequence
	Floor   uint64 // version floor: as_of below it answers 410

	Clips []Clip
	Cuts  []Cut // expand and lineage targets
	// Perm are the live objects, in creation order, with their birth
	// seq; point reads draw from them.
	Perm []Life
	// Churn are the deleted history objects, in creation order; both
	// Born and Died rise along the slice.
	Churn []Life

	QuerySel  []Query // selective queries, 1..50 rows each
	LiveAt    []Query // live_at-only subset of QuerySel, for as_of queries
	PageKind  string  // kind= value with at least PageTotal matches
	PageTotal int
	Comps     []string // timeline targets
}

type span struct {
	id         core.ID
	start, end float64
}

type builder struct {
	db    *catalog.DB
	store blob.Store
	spec  Spec
	r     *rng.RNG
	tags  *rng.Zipf
	m     *Manifest

	reelNext int
	spans    []span
	deps     map[core.ID][]core.ID // object → direct dependents
	names    map[core.ID]string
	churnIdx map[core.ID]int

	metaVideo []core.ID // meta stored video objects (cut inputs)
	metaByK   map[media.Kind][]metaObj
	pending   []catalog.BatchItem
	onFlush   []func(id core.ID, seq uint64)
}

type metaObj struct {
	id   core.ID
	secs float64
}

// Build seeds dir (which must not exist yet or be empty) and returns
// the manifest. The same spec and seed produce the same catalog, the
// same names and the same sequence numbers.
//
// The catalog is populated without a journal attached and persisted
// with one full snapshot: sequence numbers, version chains and the
// floor come out the same as with a journal, but set-up does not issue
// one fsync per delete. On this benchmark's first box fsync latency
// went from 0.2 ms to 2 ms for minutes at a time, which made a
// journaled audit seed (13k serial fsyncs per run) take 8 to 25 s
// longer than usual and put the run budget at risk. The write path is
// measured where it belongs, in the sections.
func Build(dir string, spec Spec, seed uint64) (*Manifest, error) {
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		return nil, err
	}
	db := catalog.New(store, catalog.WithVersionRetention(Retention))
	m, err := Populate(db, spec, seed)
	if err == nil {
		err = db.Save(dir)
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("seed: %w", err)
	}
	return m, nil
}

// Retention is the version retention a catalog must be created with
// for Populate to raise the version floor: the floor marker gets three
// revisions, no other object ever has more than two versions (created,
// deleted). The served catalog keeps the server's own default.
const Retention = 2

// CompComponents is how many components every composition has.
const CompComponents = 3

// Populate fills an empty catalog created with WithVersionRetention(
// Retention), journaled or not.
func Populate(db *catalog.DB, spec Spec, seed uint64) (*Manifest, error) {
	b := &builder{
		db: db, store: db.Store(), spec: spec,
		r:        rng.New(seed).Fork("seed"),
		tags:     rng.NewZipf(tagValues, 1.0),
		m:        &Manifest{},
		deps:     map[core.ID][]core.ID{},
		names:    map[core.ID]string{},
		churnIdx: map[core.ID]int{},
		metaByK:  map[media.Kind][]metaObj{},
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	return b.m, nil
}

func (b *builder) run() error {
	s := b.spec
	if err := b.addClips(); err != nil {
		return err
	}
	// Early phase: a third of the population, every composition.
	early := s.Meta / 3
	if err := b.addMeta(0, early); err != nil {
		return err
	}
	if err := b.addMetaCuts(0, s.MetaCuts/3); err != nil {
		return err
	}
	if err := b.addClipCuts(); err != nil {
		return err
	}
	if err := b.addComps(); err != nil {
		return err
	}
	// Growth rounds: the rest of the population arrives interleaved
	// with the churn, so births are spread over the whole history.
	floorRound := int(s.FloorFrac * rounds)
	churnLive := [][]core.ID{}
	for r := 0; r < rounds; r++ {
		if r == floorRound {
			if err := b.raiseFloor(); err != nil {
				return err
			}
		}
		lo := early + (s.Meta-early)*r/rounds
		hi := early + (s.Meta-early)*(r+1)/rounds
		if err := b.addMeta(lo, hi); err != nil {
			return err
		}
		clo := s.MetaCuts/3 + (s.MetaCuts-s.MetaCuts/3)*r/rounds
		chi := s.MetaCuts/3 + (s.MetaCuts-s.MetaCuts/3)*(r+1)/rounds
		if err := b.addMetaCuts(clo, chi); err != nil {
			return err
		}
		ids, err := b.addChurn(s.Churn*r/rounds, s.Churn*(r+1)/rounds)
		if err != nil {
			return err
		}
		churnLive = append(churnLive, ids)
		// Each round's churn outlives one more round, then goes.
		if len(churnLive) > 1 {
			if err := b.deleteChurn(churnLive[0]); err != nil {
				return err
			}
			churnLive = churnLive[1:]
		}
	}
	for _, ids := range churnLive {
		if err := b.deleteChurn(ids); err != nil {
			return err
		}
	}
	b.m.Objects = b.db.Len()
	b.m.Seq = b.db.Seq()
	b.m.Floor = b.db.CurrentView().VersionFloor()
	if b.m.Objects != s.Objects() {
		return fmt.Errorf("seeded %d objects, spec says %d", b.m.Objects, s.Objects())
	}
	b.buildQueries()
	return nil
}

// --- stored clips with real payloads -------------------------------

func (b *builder) addClips() error {
	s := b.spec
	q := codec.QuantizerFor(media.QualityVHS)
	bodies := make([][][]byte, clipContents)
	for c := range bodies {
		// Content is the same for every seed: payload sizes (and with
		// them stream latency, bytes delivered and bytes on disk) must
		// not move with the draw; the seed decides who asks for what.
		g := frame.Generator{W: s.ClipW, H: s.ClipH, Seed: int64(41 + 56*c)}
		for i := 0; i < s.ClipFrames; i++ {
			data, err := codec.VJPGEncode(g.Frame(i), q)
			if err != nil {
				return err
			}
			bodies[c] = append(bodies[c], data)
		}
	}
	typ := media.PALVideoType(s.ClipW, s.ClipH, media.QualityVHS, media.EncodingVJPG)
	for i := 0; i < s.Clips; i++ {
		body := bodies[i%clipContents]
		id, bl, err := b.store.Create()
		if err != nil {
			return err
		}
		bu := interp.NewBuilder(id, bl).AddTrack("video", typ, typ.NewDescriptor(int64(len(body))))
		clip := Clip{Name: fmt.Sprintf("clip-%04d", i)}
		for k, data := range body {
			bu.Append("video", data, int64(k), 1, media.ElementDescriptor{})
			clip.ElemBytes = append(clip.ElemBytes, len(data))
			clip.Bytes += int64(len(data))
		}
		it, err := bu.Seal()
		if err != nil {
			return err
		}
		if err := b.db.RegisterInterpretation(it); err != nil {
			return err
		}
		b.queue(catalog.BatchItem{Name: clip.Name, Blob: id, Track: "video",
			Attrs: map[string]string{"role": "clip"}}, func(oid core.ID) {
			b.spans = append(b.spans, span{oid, 0, timebase.PAL.Seconds(int64(len(body)))})
		})
		b.m.Clips = append(b.m.Clips, clip)
	}
	return b.flush()
}

func (b *builder) addClipCuts() error {
	s := b.spec
	for i := 0; i < s.ClipCuts; i++ {
		src := i % s.Clips
		from := int64(b.r.Intn(s.ClipFrames - s.CutFrames + 1))
		name := fmt.Sprintf("cut-%04d", i)
		b.queue(catalog.BatchItem{
			Name: name, Op: "video-edit", InputNames: []string{b.m.Clips[src].Name},
			Params: editParams(from, from+int64(s.CutFrames)),
			Attrs:  map[string]string{"role": "cut"},
		}, nil)
		b.m.Cuts = append(b.m.Cuts, Cut{Name: name, Elements: s.CutFrames})
	}
	return b.flush()
}

// --- tiny-payload population ----------------------------------------

var metaKinds = []media.Kind{media.KindVideo, media.KindAudio, media.KindMusic, media.KindAnimation, media.KindImage}

// addMeta creates stored objects [lo, hi), sixteen tracks to a BLOB.
// Every other object is video (cut inputs, page walks); the rest
// cycle through the other four kinds.
func (b *builder) addMeta(lo, hi int) error {
	for base := lo; base < hi; base += tracksPerBlob {
		n := tracksPerBlob
		if base+n > hi {
			n = hi - base
		}
		id, bl, err := b.store.Create()
		if err != nil {
			return err
		}
		bu := interp.NewBuilder(id, bl)
		type made struct {
			track string
			kind  media.Kind
			secs  float64
		}
		tracks := make([]made, n)
		for t := 0; t < n; t++ {
			kind := media.KindVideo
			if (base+t)%2 == 1 {
				kind = metaKinds[1+(base+t)/2%(len(metaKinds)-1)]
			}
			track := fmt.Sprintf("t%02d", t)
			tracks[t] = made{track, kind, b.metaTrack(bu, track, kind)}
		}
		it, err := bu.Seal()
		if err != nil {
			return err
		}
		if err := b.db.RegisterInterpretation(it); err != nil {
			return err
		}
		for t, tr := range tracks {
			b.queue(catalog.BatchItem{
				Name: fmt.Sprintf("m-%06d", base+t), Blob: id, Track: tr.track, Attrs: b.attrs(),
			}, func(oid core.ID) {
				if tr.secs > 0 {
					b.spans = append(b.spans, span{oid, 0, tr.secs})
				}
				b.metaByK[tr.kind] = append(b.metaByK[tr.kind], metaObj{oid, tr.secs})
				if tr.kind == media.KindVideo {
					b.metaVideo = append(b.metaVideo, oid)
				}
			})
		}
	}
	return b.flush()
}

// metaTrack appends one tiny track of the given kind and returns its
// duration in seconds (0 for images, which have no timeline).
func (b *builder) metaTrack(bu *interp.Builder, track string, kind media.Kind) float64 {
	pad := []byte{0xde, 0xad, 0xbe, 0xef}
	switch kind {
	case media.KindVideo:
		frames := int64(8 + b.r.Intn(57))
		typ := media.PALVideoType(32, 24, media.QualityVHS, media.EncodingVJPG)
		bu.AddTrack(track, typ, typ.NewDescriptor(frames))
		for i := int64(0); i < frames; i++ {
			bu.Append(track, pad, i, 1, media.ElementDescriptor{})
		}
		return timebase.PAL.Seconds(frames)
	case media.KindAudio:
		secs := int64(2 + b.r.Intn(maxMetaSecs-1))
		ticks := secs * 44100
		typ := media.PCMBlockAudioType(ticks / 2)
		bu.AddTrack(track, typ, typ.NewDescriptor(ticks))
		bu.Append(track, pad, 0, ticks/2, media.ElementDescriptor{})
		bu.Append(track, pad, ticks/2, ticks-ticks/2, media.ElementDescriptor{})
		return float64(secs)
	case media.KindMusic:
		secs := int64(2 + b.r.Intn(maxMetaSecs-1))
		ticks := secs * 960
		typ := media.MIDIType()
		bu.AddTrack(track, typ, typ.NewDescriptor(ticks))
		for _, at := range []int64{0, ticks / 2, ticks} {
			ev := music.Event{Tick: at, Kind: music.NoteOn, Key: 60, Velocity: 64}
			bu.Append(track, music.MarshalEvent(ev), at, 0, media.ElementDescriptor{})
		}
		return float64(secs)
	case media.KindAnimation:
		secs := int64(1 + b.r.Intn(60))
		ticks := secs * 25
		typ := media.AnimationType(32, 24, timebase.PAL)
		bu.AddTrack(track, typ, typ.NewDescriptor(ticks))
		bu.Append(track, pad, 0, ticks/2, media.ElementDescriptor{Key: true})
		bu.Append(track, pad, ticks/2, ticks-ticks/2, media.ElementDescriptor{})
		return float64(secs)
	default:
		typ := media.ImageType(4, 4, media.ColorRGB, media.EncodingRawRGB)
		bu.AddTrack(track, typ, typ.NewDescriptor(0))
		bu.Append(track, make([]byte, 48), 0, 0, media.ElementDescriptor{})
		return 0
	}
}

// attrs draws the attribute set of one browsed object: a skewed tag
// and the next slot of a fixed-size reel.
func (b *builder) attrs() map[string]string {
	a := map[string]string{
		"tag":  fmt.Sprintf("t%02d", b.tags.Draw(b.r)),
		"reel": fmt.Sprintf("r%05d", b.reelNext/reelSize),
	}
	b.reelNext++
	return a
}

func (b *builder) addMetaCuts(lo, hi int) error {
	for i := lo; i < hi; i++ {
		src := b.metaVideo[b.r.Intn(len(b.metaVideo))]
		name := fmt.Sprintf("mc-%06d", i)
		b.queue(catalog.BatchItem{
			Name: name, Op: "video-edit", Inputs: []core.ID{src},
			Params: editParams(0, 4),
			Attrs:  b.attrs(),
		}, func(oid core.ID) {
			b.deps[src] = append(b.deps[src], oid)
		})
	}
	return b.flush()
}

// --- compositions ----------------------------------------------------

func (b *builder) addComps() error {
	s := b.spec
	if s.Comps == 0 {
		return nil
	}
	step := compSpread / float64(s.Comps)
	for i := 0; i < s.Comps; i++ {
		base := compBase + float64(i)*step
		var comps []core.ComponentRef
		lo, hi := 0.0, 0.0
		for k, kind := range []media.Kind{media.KindAudio, media.KindVideo, media.KindMusic} {
			pool := b.metaByK[kind]
			if len(pool) == 0 {
				return fmt.Errorf("no stored %v object to compose", kind)
			}
			c := pool[b.r.Intn(len(pool))]
			// Offsets are whole milliseconds on the axis, and the
			// bookkeeping below converts them back exactly as the
			// catalog's index does.
			startMs := int64(base*1000) + int64(b.r.Intn(20000))
			start := timebase.Millis.Seconds(startMs)
			comps = append(comps, core.ComponentRef{Object: c.id, Start: startMs})
			if k == 0 || start < lo {
				lo = start
			}
			if start+c.secs > hi {
				hi = start + c.secs
			}
		}
		name := fmt.Sprintf("show-%04d", i)
		before := b.db.Seq()
		id, err := b.db.AddMultimedia(name, timebase.Millis, comps, map[string]string{"role": "show"})
		if err != nil {
			return err
		}
		b.born(id, name, before+1)
		b.spans = append(b.spans, span{id, lo, hi})
		for _, c := range comps {
			b.deps[c.Object] = append(b.deps[c.Object], id)
		}
		b.m.Comps = append(b.m.Comps, name)
	}
	return nil
}

// --- history: floor and churn ---------------------------------------

// raiseFloor revises one composition twice under retention 2: its
// first version is pruned and the catalog-wide floor lands on the
// second.
func (b *builder) raiseFloor() error {
	var comps []core.ComponentRef
	for _, c := range b.m.Clips[:2] {
		o, err := b.db.Lookup(c.Name)
		if err != nil {
			return err
		}
		comps = append(comps, core.ComponentRef{Object: o.ID})
	}
	before := b.db.Seq()
	id, err := b.db.AddMultimedia("floor-marker", timebase.Millis, comps, nil)
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if err := b.db.AddSync(id, 0, 1, int64(40+i)); err != nil {
			return err
		}
	}
	if floor := b.db.CurrentView().VersionFloor(); floor != before+2 {
		return fmt.Errorf("version floor is %d, want %d", floor, before+2)
	}
	// Born at the floor: as_of draws never ask for the pruned version.
	b.born(id, "floor-marker", before+2)
	b.spans = append(b.spans, span{id, 0, timebase.PAL.Seconds(int64(b.spec.ClipFrames))})
	return nil
}

func (b *builder) addChurn(lo, hi int) ([]core.ID, error) {
	var ids []core.ID
	for i := lo; i < hi; i++ {
		src := b.metaVideo[b.r.Intn(len(b.metaVideo))]
		name := fmt.Sprintf("tmp-%06d", i)
		b.queueChurn(catalog.BatchItem{
			Name: name, Op: "video-edit", Inputs: []core.ID{src},
			Params: editParams(0, 2),
		}, &ids)
	}
	return ids, b.flush()
}

// deleteChurn removes one round's churn. Deletes are serial, so each
// takes the next sequence number.
func (b *builder) deleteChurn(ids []core.ID) error {
	for _, id := range ids {
		before := b.db.Seq()
		if err := b.db.Delete(id); err != nil {
			return err
		}
		b.m.Churn[b.churnIdx[id]].Died = before + 1
	}
	return nil
}

// editParams encodes a video-edit selecting frames [from, to) of its
// one input.
func editParams(from, to int64) []byte {
	return derive.EncodeParams(derive.EditParams{Entries: []derive.EditEntry{{Input: 0, From: from, To: to}}})
}

// --- batching ---------------------------------------------------------

// queue adds one permanent object to the pending batch; after runs
// once the batch has committed and the object's ID is known.
func (b *builder) queue(it catalog.BatchItem, after func(id core.ID)) {
	b.pending = append(b.pending, it)
	name := it.Name
	b.onFlush = append(b.onFlush, func(id core.ID, seq uint64) {
		b.born(id, name, seq)
		if after != nil {
			after(id)
		}
	})
}

func (b *builder) queueChurn(it catalog.BatchItem, ids *[]core.ID) {
	b.pending = append(b.pending, it)
	name := it.Name
	b.onFlush = append(b.onFlush, func(id core.ID, seq uint64) {
		*ids = append(*ids, id)
		b.churnIdx[id] = len(b.m.Churn)
		b.m.Churn = append(b.m.Churn, Life{Name: name, Born: seq})
	})
}

func (b *builder) born(id core.ID, name string, seq uint64) {
	b.names[id] = name
	b.m.Perm = append(b.m.Perm, Life{Name: name, Born: seq})
}

// flush commits the pending items in batches. One writer, so the
// records of a batch take consecutive sequence numbers in item order.
func (b *builder) flush() error {
	for len(b.pending) > 0 {
		n := batchSize
		if n > len(b.pending) {
			n = len(b.pending)
		}
		before := b.db.Seq()
		ids, err := b.db.AddBatch(b.pending[:n])
		if err != nil {
			return err
		}
		if got := b.db.Seq() - before; got != uint64(n) {
			return fmt.Errorf("batch of %d took %d sequence numbers", n, got)
		}
		for i, id := range ids {
			b.onFlush[i](id, before+uint64(i)+1)
		}
		b.pending, b.onFlush = b.pending[n:], b.onFlush[n:]
	}
	return nil
}

// --- query shapes ------------------------------------------------------

// buildQueries derives the selective query set from what was seeded:
// every entry's expected row count is computed here, from the
// seeder's own bookkeeping, never read back from the catalog.
func (b *builder) buildQueries() {
	m := b.m
	// attr: every reel has reelSize members except possibly the last.
	reels := (b.reelNext + reelSize - 1) / reelSize
	for i := 0; i < 64 && i < reels-1; i++ {
		r := b.r.Intn(reels - 1)
		m.QuerySel = append(m.QuerySel, Query{fmt.Sprintf("attr.reel=r%05d&limit=50", r), reelSize})
	}
	// live_at / overlaps: instants past every stored object, where
	// only staggered compositions are live.
	if b.spec.Comps > 0 {
		for i := 0; i < 64; i++ {
			t := compBase + 30 + float64(b.r.Intn(int(compSpread-60)*1000))/1000
			t2 := t + 15
			if b.nearBoundary(t) || b.nearBoundary(t2) {
				continue
			}
			if n := b.countSpans(t, t); n >= 1 && n <= 50 {
				q := Query{fmt.Sprintf("live_at=%.3f&limit=50", t), n}
				m.QuerySel = append(m.QuerySel, q)
				m.LiveAt = append(m.LiveAt, q)
			}
			if n := b.countSpans(t, t2); n >= 1 && n <= 50 {
				m.QuerySel = append(m.QuerySel, Query{fmt.Sprintf("overlaps=%.3f,%.3f&limit=50", t, t2), n})
			}
		}
	}
	// derived_from: stored meta videos with a handful of dependents.
	var srcs []core.ID
	for id := range b.deps {
		srcs = append(srcs, id)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	b.r.Shuffle(len(srcs), func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
	picked := 0
	for _, id := range srcs {
		if n := b.reach(id); n >= 2 && n <= 50 && picked < 64 {
			m.QuerySel = append(m.QuerySel, Query{"derived_from=" + b.names[id] + "&limit=50", n})
			picked++
		}
	}
	m.PageKind = "video"
	m.PageTotal = b.spec.Clips + b.spec.ClipCuts + len(b.metaVideo) + b.spec.MetaCuts
}

// nearBoundary reports whether t lies within 2 ms of where some span
// starts or ends: a probe there could be decided by float rounding.
func (b *builder) nearBoundary(t float64) bool {
	for _, s := range b.spans {
		if math.Abs(s.start-t) < 0.002 || math.Abs(s.end-t) < 0.002 {
			return true
		}
	}
	return false
}

func (b *builder) countSpans(t1, t2 float64) int {
	n := 0
	for _, s := range b.spans {
		if s.start <= t2 && s.end >= t1 {
			n++
		}
	}
	return n
}

// reach counts the transitive dependents of id.
func (b *builder) reach(id core.ID) int {
	seen := map[core.ID]bool{}
	stack := []core.ID{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range b.deps[cur] {
			if !seen[d] {
				seen[d] = true
				stack = append(stack, d)
			}
		}
	}
	return len(seen)
}
