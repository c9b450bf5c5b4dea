package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
	"timedmedia/internal/fixtures"
	"timedmedia/internal/media"
	"timedmedia/internal/timebase"
)

// The index-vs-scan equivalence oracle. Randomized catalogs are built
// from a seeded generator, then every query filter — alone and in
// random compositions with random sort/limit shaping — is run twice:
// once through the indexed planner (query.Q → catalog.SelectIndexed)
// and once through an independent brute-force evaluation over a full
// View.Select snapshot, on the live view and as of a random past seq. The brute side reimplements provenance
// reachability and timeline spans from first principles so it shares
// no code with the index layer. On mismatch the failing case is
// greedily shrunk (dropping filters, sort and limit while the mismatch
// persists) and reported with its seed for replay.

// oracleEnv is one view of a generated catalog plus the brute-force
// view of it: a full ID-ordered snapshot and an ID lookup over that
// snapshot. As of a past seq, View.Select is a scan of the version
// chains, sharing no code with the planner's index walk.
type oracleEnv struct {
	v    *catalog.View
	objs []*core.Object
	byID map[core.ID]*core.Object
}

func snapshotEnv(v *catalog.View) *oracleEnv {
	objs := v.Select(func(*core.Object) bool { return true })
	byID := make(map[core.ID]*core.Object, len(objs))
	for _, o := range objs {
		byID[o.ID] = o
	}
	return &oracleEnv{v: v, objs: objs, byID: byID}
}

// bruteReaches reports whether src is in o's transitive ancestry
// (derivation inputs and composition components), by walking the
// object graph downward — deliberately not the catalog's adjacency
// index.
func (env *oracleEnv) bruteReaches(o *core.Object, src core.ID) bool {
	seen := map[core.ID]bool{}
	var walk func(id core.ID) bool
	walk = func(id core.ID) bool {
		if seen[id] {
			return false
		}
		seen[id] = true
		obj := env.byID[id]
		if obj == nil {
			return false
		}
		var refs []core.ID
		if obj.Derivation != nil {
			refs = append(refs, obj.Derivation.Inputs...)
		}
		if obj.Multimedia != nil {
			for _, c := range obj.Multimedia.Components {
				refs = append(refs, c.Object)
			}
		}
		for _, r := range refs {
			if r == src || walk(r) {
				return true
			}
		}
		return false
	}
	return walk(o.ID)
}

// bruteSpan recomputes o's presentation window [lo, hi) from first
// principles: timed media live on [0, duration); multimedia objects on
// the union of their timed components' placements. ok is false when
// the object has no positive timed extent.
func (env *oracleEnv) bruteSpan(o *core.Object) (lo, hi float64, ok bool) {
	if o.Desc != nil && o.Desc.TimeSystem().Valid() {
		d := o.Desc.TimeSystem().Seconds(o.Desc.Duration())
		return 0, d, d > 0
	}
	if o.Multimedia == nil || !o.Multimedia.Time.Valid() {
		return 0, 0, false
	}
	for _, c := range o.Multimedia.Components {
		comp := env.byID[c.Object]
		if comp == nil || comp.Desc == nil || !comp.Desc.TimeSystem().Valid() {
			continue
		}
		d := comp.Desc.TimeSystem().Seconds(comp.Desc.Duration())
		if d <= 0 {
			continue
		}
		s := o.Multimedia.Time.Seconds(c.Start)
		if !ok {
			lo, hi, ok = s, s+d, true
			continue
		}
		lo = math.Min(lo, s)
		hi = math.Max(hi, s+d)
	}
	return lo, hi, ok
}

// bruteOverlaps is the half-open-window overlap rule the brute side
// uses for LiveAt/Overlapping.
func (env *oracleEnv) bruteOverlaps(o *core.Object, t1, t2 float64) bool {
	lo, hi, ok := env.bruteSpan(o)
	return ok && lo <= t2 && hi > t1
}

// spec is one query filter plus its independent brute-force meaning.
type spec struct {
	name  string
	apply func(*Q)
	brute func(env *oracleEnv, o *core.Object) bool
}

// familySpec draws a random spec of the given filter family.
func familySpec(rng *rand.Rand, env *oracleEnv, family int) spec {
	pick := func() *core.Object { return env.objs[rng.Intn(len(env.objs))] }
	switch family {
	case 0:
		k := pick().Kind
		return spec{
			name:  "kind=" + k.String(),
			apply: func(q *Q) { q.Kind(k) },
			brute: func(_ *oracleEnv, o *core.Object) bool { return o.Kind == k },
		}
	case 1:
		c := pick().Class
		return spec{
			name:  fmt.Sprintf("class=%d", c),
			apply: func(q *Q) { q.Class(c) },
			brute: func(_ *oracleEnv, o *core.Object) bool { return o.Class == c },
		}
	case 2:
		key, val := "language", "zz" // deliberate miss 1 time in 4
		if rng.Intn(4) != 0 {
			o := pick()
			for k, v := range o.Attrs {
				key, val = k, v
				break
			}
		}
		return spec{
			name:  "attr." + key + "=" + val,
			apply: func(q *Q) { q.Attr(key, val) },
			brute: func(_ *oracleEnv, o *core.Object) bool { return o.Attrs[key] == val },
		}
	case 3:
		want := []media.Quality{media.QualityVHS, media.QualityCD, media.QualityStudio}[rng.Intn(3)]
		return spec{
			name:  fmt.Sprintf("quality=%v", want),
			apply: func(q *Q) { q.Quality(want) },
			brute: func(_ *oracleEnv, o *core.Object) bool {
				return o.Desc != nil && o.Desc.QualityFactor() == want
			},
		}
	case 4:
		subs := []string{"clip", "cut", "mix", "tone", "-00", "q"}
		sub := subs[rng.Intn(len(subs))]
		return spec{
			name:  "name_contains=" + sub,
			apply: func(q *Q) { q.NameContains(sub) },
			brute: func(_ *oracleEnv, o *core.Object) bool { return strings.Contains(o.Name, sub) },
		}
	case 5:
		lo := rng.Float64() * 2
		hi := lo + rng.Float64()*3
		return spec{
			name:  fmt.Sprintf("duration=[%.3f,%.3f]", lo, hi),
			apply: func(q *Q) { q.DurationBetween(lo, hi) },
			brute: func(_ *oracleEnv, o *core.Object) bool {
				if o.Desc == nil || !o.Desc.TimeSystem().Valid() {
					return false
				}
				sec := o.Desc.TimeSystem().Seconds(o.Desc.Duration())
				return sec >= lo && sec <= hi
			},
		}
	case 6:
		src := pick().ID
		return spec{
			name:  fmt.Sprintf("derived_from=%v", src),
			apply: func(q *Q) { q.DerivedFrom(src) },
			brute: func(env *oracleEnv, o *core.Object) bool { return env.bruteReaches(o, src) },
		}
	case 7:
		t := rng.Float64()*10 - 1 // sometimes negative → usually empty
		return spec{
			name:  fmt.Sprintf("live_at=%.3f", t),
			apply: func(q *Q) { q.LiveAt(t) },
			brute: func(env *oracleEnv, o *core.Object) bool { return env.bruteOverlaps(o, t, t) },
		}
	default:
		t1 := rng.Float64() * 8
		t2 := t1 + rng.Float64()*3
		return spec{
			name:  fmt.Sprintf("overlaps=[%.3f,%.3f]", t1, t2),
			apply: func(q *Q) { q.Overlapping(t1, t2) },
			brute: func(env *oracleEnv, o *core.Object) bool { return env.bruteOverlaps(o, t1, t2) },
		}
	}
}

const numFamilies = 9

// oracleCase is one full query shape: filters plus sort and limit.
type oracleCase struct {
	specs []spec
	sort  int // 0 none (ID order), 1 name, 2 duration
	limit int // -1 unlimited
}

func (c oracleCase) String() string {
	var names []string
	for _, s := range c.specs {
		names = append(names, s.name)
	}
	desc := strings.Join(names, " & ")
	if desc == "" {
		desc = "(no filters)"
	}
	switch c.sort {
	case 1:
		desc += " sort=name"
	case 2:
		desc += " sort=duration"
	}
	if c.limit >= 0 {
		desc += fmt.Sprintf(" limit=%d", c.limit)
	}
	return desc
}

// build assembles the indexed query for the case. A Q is single-use,
// so Run and Count each build afresh.
func (c oracleCase) build(env *oracleEnv) *Q {
	q := At(env.v)
	for _, s := range c.specs {
		s.apply(q)
	}
	switch c.sort {
	case 1:
		q.SortByName()
	case 2:
		q.SortByDuration()
	}
	return q.Limit(c.limit)
}

// brute evaluates the case over the snapshot: filter in ID order,
// stable-sort with independently written comparators, cap.
func (c oracleCase) brute(env *oracleEnv) (ids []core.ID, count int) {
	var matched []*core.Object
	for _, o := range env.objs {
		keep := true
		for _, s := range c.specs {
			if !s.brute(env, o) {
				keep = false
				break
			}
		}
		if keep {
			matched = append(matched, o)
		}
	}
	count = len(matched)
	if c.limit >= 0 && count > c.limit {
		count = c.limit
	}
	switch c.sort {
	case 1:
		sort.SliceStable(matched, func(a, b int) bool { return matched[a].Name < matched[b].Name })
	case 2:
		sec := func(o *core.Object) float64 {
			if o.Desc == nil || !o.Desc.TimeSystem().Valid() {
				return -1
			}
			return o.Desc.TimeSystem().Seconds(o.Desc.Duration())
		}
		sort.SliceStable(matched, func(a, b int) bool {
			sa, sb := sec(matched[a]), sec(matched[b])
			if sa < 0 {
				return false
			}
			if sb < 0 {
				return true
			}
			return sa < sb
		})
	}
	if c.limit >= 0 && len(matched) > c.limit {
		matched = matched[:c.limit]
	}
	for _, o := range matched {
		ids = append(ids, o.ID)
	}
	return ids, count
}

// diff runs the case both ways and describes any divergence ("" when
// the indexed and brute-force answers agree).
func (c oracleCase) diff(env *oracleEnv) string {
	var got []core.ID
	for _, o := range c.build(env).Run() {
		got = append(got, o.ID)
	}
	gotN := c.build(env).Count()
	want, wantN := c.brute(env)
	if !slices.Equal(got, want) {
		return fmt.Sprintf("Run: indexed %v, brute-force %v", describeIDs(env, got), describeIDs(env, want))
	}
	if gotN != wantN {
		return fmt.Sprintf("Count: indexed %d, brute-force %d", gotN, wantN)
	}
	return ""
}

func describeIDs(env *oracleEnv, ids []core.ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		if o := env.byID[id]; o != nil {
			out[i] = fmt.Sprintf("%v(%s)", id, o.Name)
		} else {
			out[i] = fmt.Sprintf("%v(?)", id)
		}
	}
	return out
}

// shrink greedily minimizes a failing case: drop filters, then sort,
// then the limit, keeping each removal only while the mismatch
// persists.
func shrinkCase(env *oracleEnv, c oracleCase) oracleCase {
	for changed := true; changed; {
		changed = false
		for i := range c.specs {
			trial := c
			trial.specs = append(append([]spec{}, c.specs[:i]...), c.specs[i+1:]...)
			if trial.diff(env) != "" {
				c, changed = trial, true
				break
			}
		}
		if !changed && c.sort != 0 {
			trial := c
			trial.sort = 0
			if trial.diff(env) != "" {
				c, changed = trial, true
			}
		}
		if !changed && c.limit != -1 {
			trial := c
			trial.limit = -1
			if trial.diff(env) != "" {
				c, changed = trial, true
			}
		}
	}
	return c
}

func checkCase(t *testing.T, env *oracleEnv, c oracleCase, seed int64) {
	t.Helper()
	d := c.diff(env)
	if d == "" {
		return
	}
	min := shrinkCase(env, c)
	t.Fatalf("index/scan divergence (seed %d)\n  case:    %v\n  minimal: %v\n  %s",
		seed, c, min, min.diff(env))
}

// genCatalog grows a random object graph: stored videos and tones with
// random attributes, cuts and chained derivations, multimedia
// compositions (whose components may themselves be derived or
// multimedia, contributing no timeline extent), and occasional deletes
// (skipped when referenced). Every structural error from an op is
// intentionally ignored — the oracle only cares about the state that
// results.
func genCatalog(t *testing.T, rng *rand.Rand) *catalog.DB {
	t.Helper()
	db := fixtures.NewMemDB()
	var all, videos []core.ID
	n := 0
	name := func(p string) string { n++; return fmt.Sprintf("%s-%03d", p, n) }
	langs := []string{"en", "fr", "de"}
	genres := []string{"news", "drama"}
	attrs := func() map[string]string {
		if rng.Intn(3) == 0 {
			return nil
		}
		m := map[string]string{"language": langs[rng.Intn(len(langs))]}
		if rng.Intn(2) == 0 {
			m["genre"] = genres[rng.Intn(len(genres))]
		}
		return m
	}
	ingestVideo := func() {
		id, err := db.Ingest(name("clip"), fixtures.Video(4+rng.Intn(8), 16, 12, rng.Int63()),
			catalog.IngestOptions{Attrs: attrs()})
		if err != nil {
			t.Fatalf("ingest video: %v", err)
		}
		all, videos = append(all, id), append(videos, id)
	}
	ingestTone := func() {
		id, err := db.Ingest(name("tone"), fixtures.Tone(0.2+rng.Float64(), 200+rng.Float64()*500),
			catalog.IngestOptions{Attrs: attrs()})
		if err != nil {
			t.Fatalf("ingest tone: %v", err)
		}
		all = append(all, id)
	}
	ingestVideo()
	ingestTone()
	ops := 35 + rng.Intn(25)
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2:
			ingestVideo()
		case 3:
			ingestTone()
		case 4, 5: // frame-range cut of a stored video
			src := videos[rng.Intn(len(videos))]
			if id, err := db.SelectDuration(src, name("cut"), 0, int64(1+rng.Intn(3))); err == nil {
				all = append(all, id)
			}
		case 6: // derivation chained off anything, even other deriveds
			src := all[rng.Intn(len(all))]
			params := derive.EncodeParams(derive.EditParams{Entries: []derive.EditEntry{{Input: 0, From: 0, To: 1}}})
			if id, err := db.AddDerived(name("edit"), "video-edit", []core.ID{src}, params, attrs()); err == nil {
				all = append(all, id)
			}
		case 7, 8: // multimedia over 1–3 random components
			comps := make([]core.ComponentRef, 1+rng.Intn(3))
			for j := range comps {
				comps[j] = core.ComponentRef{Object: all[rng.Intn(len(all))], Start: int64(rng.Intn(6000))}
			}
			if id, err := db.AddMultimedia(name("mix"), timebase.Millis, comps, attrs()); err == nil {
				all = append(all, id)
			}
		case 9: // delete; ErrInUse and friends just mean "keep it"
			j := rng.Intn(len(all))
			if db.Delete(all[j]) == nil {
				id := all[j]
				all = slices.Delete(all, j, j+1)
				if k := slices.Index(videos, id); k >= 0 {
					videos = slices.Delete(videos, k, k+1)
				}
			}
		}
	}
	if db.Len() == 0 {
		t.Fatal("generated catalog is empty")
	}
	return db
}

// TestIndexScanEquivalenceOracle is the oracle's entry point: per
// seed, every filter family alone and then a pile of random
// compositions with random shaping — on the live view, then again as
// of a random seq between the version floor and the head, where the
// planner walks the same indexes (which list every retained chain,
// tombstoned ones included) and the brute side scans the chains.
func TestIndexScanEquivalenceOracle(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	compositions := 40
	if testing.Short() {
		seeds = seeds[:2]
		compositions = 12
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db := genCatalog(t, rng)
			env := snapshotEnv(db.CurrentView())
			// Sanity: after generation the live indexes must equal a rebuild.
			if err := db.VerifyIndexes(); err != nil {
				t.Fatalf("VerifyIndexes after generation (seed %d): %v", seed, err)
			}
			checkCases(t, rng, env, compositions, seed)
			checkCases(t, rng, pastEnv(t, rng, db.CurrentView()), compositions, seed)
		})
	}
}

// checkCases runs every filter family alone, unshaped, and then random
// 1–4-filter compositions with random sort and limit against env.
func checkCases(t *testing.T, rng *rand.Rand, env *oracleEnv, compositions int, seed int64) {
	t.Helper()
	for fam := 0; fam < numFamilies; fam++ {
		checkCase(t, env, oracleCase{specs: []spec{familySpec(rng, env, fam)}, limit: -1}, seed)
	}
	limits := []int{-1, -1, 0, 1, 3}
	for i := 0; i < compositions; i++ {
		c := oracleCase{sort: rng.Intn(3), limit: limits[rng.Intn(len(limits))]}
		for j := 1 + rng.Intn(4); j > 0; j-- {
			c.specs = append(c.specs, familySpec(rng, env, rng.Intn(numFamilies)))
		}
		checkCase(t, env, c, seed)
	}
}

// pastEnv is the env of v as of a random seq S between the version
// floor and v's epoch, at which the catalog holds an object (the
// family specs draw their constants from it).
func pastEnv(t *testing.T, rng *rand.Rand, v *catalog.View) *oracleEnv {
	t.Helper()
	first := v.VersionFloor()
	for ; first < v.Epoch(); first++ {
		if a, err := v.AsOf(first); err == nil && a.Len() > 0 {
			break
		}
	}
	a, err := v.AsOf(first + uint64(rng.Int63n(int64(v.Epoch()-first)+1)))
	if err != nil {
		t.Fatal(err)
	}
	return snapshotEnv(a)
}
