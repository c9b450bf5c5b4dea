package catalog

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/media"
	"timedmedia/internal/telemetry"
	"timedmedia/internal/timebase"
)

// indexDB builds a small graph exercising every index family: two
// stored videos (one with attributes), a cut derived from the first,
// and a multimedia object composing the cut and the second video.
func indexDB(t *testing.T) (*DB, map[string]core.ID) {
	t.Helper()
	db := memDB()
	return db, indexGraph(t, db)
}

// indexGraph builds indexDB's graph in db and returns its IDs by name.
func indexGraph(t *testing.T, db *DB) map[string]core.ID {
	t.Helper()
	ids := map[string]core.ID{}
	var err error
	if ids["a"], err = db.Ingest("a", genVideo(10, 1),
		IngestOptions{Attrs: map[string]string{"language": "en", "genre": "news"}}); err != nil {
		t.Fatal(err)
	}
	if ids["b"], err = db.Ingest("b", genVideo(5, 2), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if ids["cut"], err = db.SelectDuration(ids["a"], "cut", 0, 4); err != nil {
		t.Fatal(err)
	}
	if ids["mix"], err = db.AddMultimedia("mix", timebase.Millis, []core.ComponentRef{
		{Object: ids["cut"], Start: 0}, {Object: ids["b"], Start: 500}}, nil); err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestIndexStats(t *testing.T) {
	db, _ := indexDB(t)
	st := db.IndexStats()
	if st.Kinds != 2 { // video + unknown (the multimedia object)
		t.Errorf("kinds = %d", st.Kinds)
	}
	if st.Classes != 3 {
		t.Errorf("classes = %d", st.Classes)
	}
	if st.AttrKeys != 2 || st.AttrValues != 2 {
		t.Errorf("attrs = %d keys / %d values", st.AttrKeys, st.AttrValues)
	}
	// cut→a, mix→cut, mix→b.
	if st.ProvenanceEdges != 3 {
		t.Errorf("provenance edges = %d", st.ProvenanceEdges)
	}
	// a, b and mix have timelines; cut has no descriptor.
	if st.Spans != 3 {
		t.Errorf("spans = %d", st.Spans)
	}
}

// corruptView republishes the current view with f applied to a copy
// of its state — planting an inconsistency inside an epoch the way a
// buggy edit would.
func corruptView(db *DB, f func(st *state)) {
	v := *db.cur.Load()
	f(&v.state)
	db.cur.Store(&v)
}

// TestVerifyIndexesDetectsCorruption plants one inconsistency per
// index family into a republished epoch and checks VerifyIndexes names
// it. A fresh catalog is built per case since each corruption is
// destructive.
func TestVerifyIndexesDetectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(db *DB, ids map[string]core.ID)
		wantSub string
	}{
		{"clean", func(db *DB, ids map[string]core.ID) {}, ""},
		{"stale kind entry", func(db *DB, ids map[string]core.ID) {
			corruptView(db, func(st *state) {
				st.ix.kind = setAdd(0, st.ix.kind, media.KindVideo, core.ID(9999))
			})
		}, "kind index"},
		{"missing kind entry", func(db *DB, ids map[string]core.ID) {
			corruptView(db, func(st *state) {
				st.ix.kind = setDrop(0, st.ix.kind, media.KindVideo, ids["a"])
			})
		}, "kind index missing"},
		{"unpruned empty class set", func(db *DB, ids map[string]core.ID) {
			corruptView(db, func(st *state) {
				st.ix.class = st.ix.class.set(0, core.Class(77), idset{})
			})
		}, "empty set"},
		{"stale attr key", func(db *DB, ids map[string]core.ID) {
			corruptView(db, func(st *state) {
				vals := tmap[string, idset]{}.set(0, "x", idset{}.set(0, ids["a"], struct{}{}))
				st.ix.attr = st.ix.attr.set(0, "ghost", vals)
			})
		}, "attr"},
		{"stale provenance edge", func(db *DB, ids map[string]core.ID) {
			corruptView(db, func(st *state) {
				st.ix.deps = setAdd(0, st.ix.deps, ids["b"], ids["a"])
			})
		}, "provenance"},
		{"dropped span", func(db *DB, ids map[string]core.ID) {
			corruptView(db, func(st *state) {
				st.ix.spans = st.ix.spans.remove(0, ids["b"])
			})
		}, "interval index"},
		{"wrong span", func(db *DB, ids map[string]core.ID) {
			corruptView(db, func(st *state) {
				st.ix.spans = st.ix.spans.add(0, ids["b"], Span{Start: 40, End: 41})
			})
		}, "interval index span"},
		{"stale class key", func(db *DB, ids map[string]core.ID) {
			corruptView(db, func(st *state) {
				st.ix.class = st.ix.class.set(0, core.Class(77), idset{}.set(0, ids["a"], struct{}{}))
			})
		}, "stale key"},
		{"missing attr entry", func(db *DB, ids map[string]core.ID) {
			corruptView(db, func(st *state) {
				vals, _ := st.ix.attr.get("language")
				st.ix.attr = st.ix.attr.set(0, "language", setDrop(0, vals, "en", ids["a"]))
			})
		}, "attr[language]"},
		{"unpruned empty attr key", func(db *DB, ids map[string]core.ID) {
			corruptView(db, func(st *state) {
				st.ix.attr = st.ix.attr.set(0, "ghost", tmap[string, idset]{})
			})
		}, "empty key"},
		{"stale blob reader", func(db *DB, ids map[string]core.ID) {
			b, _ := db.Get(ids["b"])
			corruptView(db, func(st *state) {
				st.ix.blob = setAdd(0, st.ix.blob, b.Blob, ids["a"])
			})
		}, "blob reader"},
		{"treap byID divergence", func(db *DB, ids map[string]core.ID) {
			corruptView(db, func(st *state) {
				st.ix.spans.byID = st.ix.spans.byID.set(0, core.ID(9999), Span{Start: 1, End: 2})
			})
		}, "interval index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, ids := indexDB(t)
			tc.corrupt(db, ids)
			err := db.VerifyIndexes()
			if tc.wantSub == "" {
				if err != nil {
					t.Fatalf("clean catalog: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("corruption %q not detected", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestIndexesFollowDelete checks the index upkeep of the delete path:
// removing the composition frees its components for deletion, and each
// delete leaves the indexes equal to a rebuild. A delete keeps the
// entries, since the chain keeps answering as-of reads; the drop of the
// chain removes them, which WithVersionRetention(1) does at the delete.
func TestIndexesFollowDelete(t *testing.T) {
	for _, keep := range []int{DefaultVersionRetention, 1} {
		db := New(blob.NewMemStore(), WithVersionRetention(keep))
		ids := indexGraph(t, db)
		full := db.IndexStats()
		for _, name := range []string{"mix", "cut", "b", "a"} {
			if err := db.Delete(ids[name]); err != nil {
				t.Fatalf("retention %d: delete %s: %v", keep, name, err)
			}
			if err := db.VerifyIndexes(); err != nil {
				t.Fatalf("retention %d: after deleting %s: %v", keep, name, err)
			}
		}
		want := full // the four retained chains
		if keep == 1 {
			want = IndexStats{}
		}
		if st := db.IndexStats(); st != want {
			t.Errorf("retention %d: stats after full drain = %+v, want %+v", keep, st, want)
		}
	}
}

// TestDeleteProbesForLiveMembers: the reader and provenance indexes
// also list tombstoned members, so a delete looks for a live one. A
// tombstoned referrer does not block a delete and a live one listed
// after it does; a BLOB whose remaining readers are all tombstoned is
// collected.
func TestDeleteProbesForLiveMembers(t *testing.T) {
	db, ids := indexDB(t)
	cut2, err := db.SelectDuration(ids["a"], "cut2", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mix", "cut"} {
		if err := db.Delete(ids[name]); err != nil {
			t.Fatalf("delete %s, whose referrers are tombstoned: %v", name, err)
		}
	}
	if err := db.Delete(ids["a"]); !errors.Is(err, ErrInUse) || !strings.Contains(err.Error(), cut2.String()) {
		t.Fatalf("delete a, read by tombstoned cut and live cut2: %v, want ErrInUse naming %v", err, cut2)
	}
	if err := db.Delete(cut2); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(ids["a"]); err != nil {
		t.Fatalf("delete a, whose referrers are all tombstoned: %v", err)
	}

	src, _ := db.Get(ids["b"])
	r1, err := db.AddNonDerived("r1", src.Blob, src.Track, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []core.ID{r1, ids["b"]} {
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
		_, err := db.CurrentView().Interpretation(src.Blob)
		if collected := errors.Is(err, ErrNoInterp); collected != (id == ids["b"]) {
			t.Errorf("after deleting %v: BLOB collected = %v (%v)", id, collected, err)
		}
	}
	if err := db.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestAddRefusesRetainedChainID: an add whose recorded ID names a
// retained chain, even a tombstoned one, is refused and publishes
// nothing. Accepted, it would file a version of another object in that
// chain, under a name the chain is not listed by.
func TestAddRefusesRetainedChainID(t *testing.T) {
	db, ids := indexDB(t)
	if err := db.Delete(ids["mix"]); err != nil {
		t.Fatal(err)
	}
	seq := db.Seq()
	rec := mustEncode(t, &walOp{Seq: seq + 1, Kind: opMultimedia, ID: ids["mix"], Name: "mix2",
		TimeNum: timebase.Millis.Num, TimeDen: timebase.Millis.Den,
		Comps: []core.ComponentRef{{Object: ids["cut"], Start: 0}, {Object: ids["b"], Start: 500}}})
	if _, err := db.ApplyReplicated(rec); !errors.Is(err, ErrInvalid) {
		t.Fatalf("add over tombstoned chain %v: %v, want ErrInvalid", ids["mix"], err)
	}
	if db.Seq() != seq {
		t.Errorf("seq moved %d → %d", seq, db.Seq())
	}
	if _, err := db.Get(ids["mix"]); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(%v) = %v, want not found", ids["mix"], err)
	}
	if _, err := db.Lookup("mix2"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Lookup(mix2) = %v, want not found", err)
	}
	if err := db.CurrentView().VerifyVersions(); err != nil {
		t.Error(err)
	}
}

// TestDeletedCompositionKeepsSpanAcrossReopen: a composition deleted
// while its components stay live keeps its index entries, and the
// rebuild on open links it with the span it was linked with, so
// live_at and derived_from as of a seq before the delete answer the
// same after a reopen.
func TestDeletedCompositionKeepsSpanAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	ids := indexGraph(t, db)
	before := db.Seq()
	if err := db.Delete(ids["mix"]); err != nil {
		t.Fatal(err)
	}
	// mix spans [0.5, 0.7): b (5 PAL frames) placed at 500 ms.
	queries := map[string]IndexedQuery{
		"live_at 0.55":     {Spans: []Span{{Start: 0.55, End: 0.55}}},
		"derived_from cut": {Reach: []core.ID{ids["cut"]}},
		"derived_from a":   {Reach: []core.ID{ids["a"]}},
		"live_at, from b":  {Reach: []core.ID{ids["b"]}, Spans: []Span{{Start: 0, End: 1}}},
	}
	answers := func(db *DB) map[string]string {
		v, err := db.CurrentView().AsOf(before)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for name, q := range queries {
			got := v.SelectIndexed(q, nil, -1)
			out[name] = pageIDs(got, len(got))
		}
		return out
	}
	want := answers(db)
	if only := pageIDs([]*core.Object{{ID: ids["mix"]}}, 1); want["live_at 0.55"] != only || want["derived_from cut"] != only {
		t.Fatalf("as of %d before the reopen: %v, want %s for live_at 0.55 and derived_from cut", before, want, only)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	db2 := openDB(t, dir)
	defer db2.CloseJournal()
	if err := db2.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
	if got := answers(db2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("as of %d after the reopen: %v, want %v", before, got, want)
	}
}

// TestSelectIndexedLimitAndPage covers the window arithmetic of the
// shared executor from the catalog side.
func TestSelectIndexedLimitAndPage(t *testing.T) {
	db, _ := indexDB(t)
	v := db.CurrentView()
	k := media.KindVideo
	all := v.SelectIndexed(IndexedQuery{Kind: &k}, nil, -1)
	if len(all) != 3 { // a, b, cut
		t.Fatalf("videos = %d", len(all))
	}
	if got := v.SelectIndexed(IndexedQuery{Kind: &k}, nil, 2); len(got) != 2 {
		t.Errorf("limit 2 = %d", len(got))
	}
	if n := v.CountIndexed(IndexedQuery{Kind: &k}, nil, -1); n != 3 {
		t.Errorf("count = %d", n)
	}
	if n := v.CountIndexed(IndexedQuery{Kind: &k}, nil, 1); n != 1 {
		t.Errorf("capped count = %d", n)
	}
	page, total := v.SelectPage(IndexedQuery{Kind: &k}, nil, 1, 1)
	if total != 3 || len(page) != 1 || page[0].ID != all[1].ID {
		t.Errorf("page = %v total %d", page, total)
	}
	// Offset past the end: empty page, true total.
	page, total = v.SelectPage(IndexedQuery{}, nil, 50, 2)
	if total != 4 || len(page) != 0 {
		t.Errorf("past-end page = %v total %d", page, total)
	}
	// Residual predicate composes with the indexed constraints.
	pred := func(o *core.Object) bool { return o.Name != "cut" }
	if n := v.CountIndexed(IndexedQuery{Kind: &k}, pred, -1); n != 2 {
		t.Errorf("count with pred = %d", n)
	}
	// limit 0 counts nothing; a negative offset clamps to 0; the scan
	// plan (zero query) stops walking once the cap is reached.
	if n := v.CountIndexed(IndexedQuery{Kind: &k}, nil, 0); n != 0 {
		t.Errorf("count limit 0 = %d", n)
	}
	page, total = v.SelectPage(IndexedQuery{Kind: &k}, nil, -7, 2)
	if total != 3 || len(page) != 2 {
		t.Errorf("negative offset page = %d/%d", len(page), total)
	}
	if got := v.SelectIndexed(IndexedQuery{}, nil, 2); len(got) != 2 {
		t.Errorf("scan with limit = %d", len(got))
	}
}

// TestLimitedQueryVisitsOnlyItsWindow: every candidate source yields
// IDs in ascending order, so a limited select or count that needs no
// total runs pred on exactly its window and stops — on the live view
// and as of its own epoch alike. A page still visits every match for
// its total.
func TestLimitedQueryVisitsOnlyItsWindow(t *testing.T) {
	const cuts, limit = 400, 10
	db := memDB()
	clip, err := db.Ingest("clip", genVideo(8, 3), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want []core.ID
	for i := 0; i < cuts; i++ {
		id, err := db.SelectDuration(clip, fmt.Sprintf("cut%03d", i), 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	v := db.CurrentView()
	a, err := v.AsOf(v.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	derived := core.ClassDerived
	sel := IndexedQuery{Class: &derived}
	calls := 0
	pred := func(*core.Object) bool { calls++; return true }
	for _, q := range []struct {
		name string
		src  interface {
			SelectIndexed(IndexedQuery, func(*core.Object) bool, int) []*core.Object
			CountIndexed(IndexedQuery, func(*core.Object) bool, int) int
			SelectPage(IndexedQuery, func(*core.Object) bool, int, int) ([]*core.Object, int)
		}
	}{{"live", v}, {"as of", a}} {
		calls = 0
		got := q.src.SelectIndexed(sel, pred, limit)
		if calls != limit || len(got) != limit {
			t.Errorf("%s: SelectIndexed(limit %d) ran pred %d times, returned %d", q.name, limit, calls, len(got))
		}
		for i, o := range got {
			if o.ID != want[i] {
				t.Errorf("%s: SelectIndexed[%d] = %v, want %v", q.name, i, o.ID, want[i])
				break
			}
		}
		calls = 0
		if n := q.src.CountIndexed(sel, pred, limit); calls != limit || n != limit {
			t.Errorf("%s: CountIndexed(limit %d) ran pred %d times, counted %d", q.name, limit, calls, n)
		}
		calls = 0
		page, total := q.src.SelectPage(sel, pred, 20, limit)
		if calls != cuts || total != cuts || len(page) != limit || page[0].ID != want[20] {
			t.Errorf("%s: SelectPage ran pred %d times, total %d, %d rows", q.name, calls, total, len(page))
		}
	}
}

// TestPlannerPicksEachIndex drives every candidate source and every
// matchLocked rejection branch: the planner sources candidates from
// the smallest index, then enforces the remaining constraints on each
// candidate.
func TestPlannerPicksEachIndex(t *testing.T) {
	db, ids := indexDB(t)
	k := media.KindVideo
	ku := media.KindUnknown
	derived := core.ClassDerived
	multi := core.ClassMultimedia

	// Class alone.
	if got := db.CurrentView().SelectIndexed(IndexedQuery{Class: &derived}, nil, -1); len(got) != 1 || got[0].Name != "cut" {
		t.Errorf("class=derived = %v", got)
	}
	// Provenance: everything downstream of a (cut directly, mix via cut).
	got := db.CurrentView().SelectIndexed(IndexedQuery{Reach: []core.ID{ids["a"]}}, nil, -1)
	if len(got) != 2 {
		t.Errorf("reach a = %v", got)
	}
	// Reach + Kind: mix is KindUnknown → kind constraint rejects it.
	got = db.CurrentView().SelectIndexed(IndexedQuery{Kind: &k, Reach: []core.ID{ids["a"]}}, nil, -1)
	if len(got) != 1 || got[0].Name != "cut" {
		t.Errorf("reach a ∧ video = %v", got)
	}
	// Reach + Class: cut is not multimedia → class constraint rejects it.
	got = db.CurrentView().SelectIndexed(IndexedQuery{Class: &multi, Reach: []core.ID{ids["a"]}}, nil, -1)
	if len(got) != 1 || got[0].Name != "mix" {
		t.Errorf("reach a ∧ multimedia = %v", got)
	}
	// Class candidates failing an attr constraint: mix has no language.
	got = db.CurrentView().SelectIndexed(IndexedQuery{Class: &multi, Attrs: []AttrEq{{Key: "language", Value: "en"}}}, nil, -1)
	if len(got) != 0 {
		t.Errorf("multimedia ∧ language=en = %v", got)
	}
	// Attr candidates failing a reach constraint: a is not its own
	// descendant.
	got = db.CurrentView().SelectIndexed(IndexedQuery{
		Attrs: []AttrEq{{Key: "language", Value: "en"}}, Reach: []core.ID{ids["a"]}}, nil, -1)
	if len(got) != 0 {
		t.Errorf("language=en ∧ reach a = %v", got)
	}
	// Interval alone: a [0,0.4), b [0,0.2), mix [0.5,0.7) (cut has no
	// extent; b placed at 500 ms).
	got = db.CurrentView().SelectIndexed(IndexedQuery{Spans: []Span{{Start: 0.3, End: 0.3}}}, nil, -1)
	if len(got) != 1 || got[0].Name != "a" {
		t.Errorf("live at 0.3 = %v", got)
	}
	got = db.CurrentView().SelectIndexed(IndexedQuery{Spans: []Span{{Start: 0.3, End: 0.6}}}, nil, -1)
	if len(got) != 2 { // a and mix
		t.Errorf("overlapping [0.3,0.6] = %v", got)
	}
	// Kind candidates under a span constraint: cut has no span → the
	// span check rejects it without an interval probe.
	got = db.CurrentView().SelectIndexed(IndexedQuery{Kind: &k, Spans: []Span{{Start: 0, End: 10}}}, nil, -1)
	if len(got) != 2 { // a and b; cut is spanless
		t.Errorf("video ∧ [0,10] = %v", got)
	}
	// Two windows must BOTH overlap: nothing lives at 39s.
	got = db.CurrentView().SelectIndexed(IndexedQuery{Spans: []Span{{Start: 0, End: 1}, {Start: 39, End: 40}}}, nil, -1)
	if len(got) != 0 {
		t.Errorf("conjunction of disjoint windows = %v", got)
	}
	// KindUnknown is a real indexed key (multimedia objects).
	if got := db.CurrentView().SelectIndexed(IndexedQuery{Kind: &ku}, nil, -1); len(got) != 1 || got[0].Name != "mix" {
		t.Errorf("kind=unknown = %v", got)
	}
	// Reach from a leaf with no dependents.
	if got := db.CurrentView().SelectIndexed(IndexedQuery{Reach: []core.ID{ids["mix"]}}, nil, -1); len(got) != 0 {
		t.Errorf("reach mix = %v", got)
	}
}

// TestIndexTelemetryCounters checks probe/fallback counters and the
// query_plan histogram move when a registry is attached.
func TestIndexTelemetryCounters(t *testing.T) {
	db, ids := indexDB(t)
	reg := telemetry.NewRegistry()
	db.SetTelemetry(reg)
	k := media.KindVideo
	db.CurrentView().SelectIndexed(IndexedQuery{Kind: &k}, nil, -1)
	db.CurrentView().SelectIndexed(IndexedQuery{Spans: []Span{{Start: 0, End: 1}}}, nil, -1)
	db.CurrentView().SelectIndexed(IndexedQuery{Reach: []core.ID{ids["a"]}}, nil, -1)
	db.CurrentView().SelectIndexed(IndexedQuery{}, nil, -1) // scan fallback
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`tbm_index_probes_total{index="kind"} 1`,
		`tbm_index_probes_total{index="interval"} 1`,
		`tbm_index_probes_total{index="provenance"} 1`,
		"tbm_index_scan_fallback_total 1",
		`tbm_stage_duration_seconds_count{stage="query_plan"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestTimelineSpanEdgeCases white-boxes span computation: zero-length
// descriptors yield no span, spanless components contribute nothing,
// and the union extends left when a later component starts earlier.
func TestTimelineSpanEdgeCases(t *testing.T) {
	zero := &core.Object{ID: 1, Desc: &media.Video{FrameRate: timebase.PAL, DurationTicks: 0}}
	if _, ok := timelineSpan(zero, func(core.ID) *core.Object { return nil }); ok {
		t.Error("zero-duration media got a span")
	}
	long := &core.Object{ID: 2, Desc: &media.Video{FrameRate: timebase.PAL, DurationTicks: 50}} // 2 s
	objs := map[core.ID]*core.Object{1: zero, 2: long}
	lookup := func(id core.ID) *core.Object { return objs[id] }
	mm := &core.Object{ID: 3, Multimedia: &core.MultimediaSpec{
		Time: timebase.Millis,
		Components: []core.ComponentRef{
			{Object: 2, Start: 1000}, // [1, 3)
			{Object: 1, Start: 500},  // zero duration → no extent
			{Object: 99, Start: 0},   // dangling → no extent
			{Object: 2, Start: 250},  // [0.25, 2.25) extends the union left
		},
	}}
	s, ok := timelineSpan(mm, lookup)
	if !ok || s.Start != 0.25 || s.End != 3 {
		t.Errorf("union span = %v %v", s, ok)
	}
	// All components spanless → no span at all.
	bare := &core.Object{ID: 4, Multimedia: &core.MultimediaSpec{
		Time:       timebase.Millis,
		Components: []core.ComponentRef{{Object: 1, Start: 0}},
	}}
	if _, ok := timelineSpan(bare, lookup); ok {
		t.Error("spanless composition got a span")
	}
}

// TestSetDropMissingKey pins that unlinking under a key that was
// never indexed is a no-op, not a panic, and that emptied posting
// lists are pruned from the persistent family.
func TestSetDropMissingKey(t *testing.T) {
	var m tmap[string, idset]
	m = setDrop(0, m, "ghost", core.ID(1))
	if m.len() != 0 {
		t.Errorf("map has %d keys", m.len())
	}
	m = setAdd(0, m, "k", core.ID(1))
	m = setDrop(0, m, "k", core.ID(1))
	if m.has("k") {
		t.Error("emptied set not pruned")
	}
}
