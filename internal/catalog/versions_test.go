package catalog

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/faultfs"
	"timedmedia/internal/media"
	"timedmedia/internal/timebase"
)

// obj is a minimal object literal for chain primitive tests.
func chainObj(id core.ID, name string) *core.Object {
	return &core.Object{ID: id, Name: name, Class: core.ClassNonDerived, Kind: media.KindVideo}
}

// TestVersionChainPrimitives pins the chain algebra: at() resolves the
// newest entry not past the seq, appended() keeps ascending order and
// replaces on equal seq (idempotent re-apply), pruned() drops oldest
// entries and reports the floor, allTombstones() spots dead chains.
func TestVersionChainPrimitives(t *testing.T) {
	o := chainObj(1, "a")
	c := &verChain{name: "a"}
	c = c.appended(verEntry{seq: 5, val: o})
	c = c.appended(verEntry{seq: 9, val: o})
	c = c.appended(verEntry{seq: 7}) // tombstone, arrives out of order
	seqs := func(c *verChain) []uint64 {
		var out []uint64
		for _, e := range c.entries {
			out = append(out, e.seq)
		}
		return out
	}
	if got := seqs(c); len(got) != 3 || got[0] != 5 || got[1] != 7 || got[2] != 9 {
		t.Fatalf("entries %v, want [5 7 9]", got)
	}

	if _, ok := c.at(4); ok {
		t.Error("at(4) before creation should report !ok")
	}
	if e, ok := c.at(5); !ok || e.seq != 5 || e.val == nil {
		t.Errorf("at(5) = %+v, %v", e, ok)
	}
	if e, ok := c.at(8); !ok || e.seq != 7 || e.val != nil {
		t.Errorf("at(8) should be the tombstone at 7, got %+v, %v", e, ok)
	}
	if e, ok := c.at(100); !ok || e.seq != 9 {
		t.Errorf("at(100) = %+v, %v, want tail", e, ok)
	}

	// Equal-seq append replaces, never duplicates.
	c2 := c.appended(verEntry{seq: 7, val: o})
	if got := seqs(c2); len(got) != 3 {
		t.Fatalf("equal-seq append duplicated: %v", got)
	}
	if e, _ := c2.at(7); e.val == nil {
		t.Error("equal-seq append did not replace the tombstone")
	}

	// Pruning keeps the newest entries and reports the floor.
	p, floor := c.pruned(2)
	if len(p.entries) != 2 || p.entries[0].seq != 7 || floor != 7 {
		t.Errorf("pruned(2) = %v entries, floor %d", seqs(p), floor)
	}
	if p2, floor2 := c.pruned(10); len(p2.entries) != 3 || floor2 != 0 {
		t.Errorf("pruned(10) should be a no-op, got %v floor %d", seqs(p2), floor2)
	}
	if p3, _ := c.pruned(0); len(p3.entries) != 1 {
		t.Errorf("pruned(0) clamps to 1, got %d entries", len(p3.entries))
	}

	if c.allTombstones() {
		t.Error("chain with live entries reported allTombstones")
	}
	dead := &verChain{name: "a", entries: []verEntry{{seq: 3}, {seq: 8}}}
	if !dead.allTombstones() {
		t.Error("tombstone-only chain not reported")
	}
}

// TestInterpVersionChainPrimitives runs the chain algebra on the
// interpretation instantiation of the same generic chain.
func TestInterpVersionChainPrimitives(t *testing.T) {
	c := &interpVerChain{}
	c = c.appended(interpVerEntry{seq: 4})
	c = c.appended(interpVerEntry{seq: 2})
	c = c.appended(interpVerEntry{seq: 4}) // equal seq replaces
	if len(c.entries) != 2 || c.entries[0].seq != 2 || c.entries[1].seq != 4 {
		t.Fatalf("entries %+v, want seqs [2 4]", c.entries)
	}
	if _, ok := c.at(1); ok {
		t.Error("at(1) before creation should report !ok")
	}
	if e, ok := c.at(3); !ok || e.seq != 2 {
		t.Errorf("at(3) = %+v, %v", e, ok)
	}
	p, floor := c.pruned(1)
	if len(p.entries) != 1 || floor != 4 {
		t.Errorf("pruned(1) = %+v floor %d", p.entries, floor)
	}
	if p2, floor2 := c.pruned(5); len(p2.entries) != 2 || floor2 != 0 {
		t.Errorf("pruned(5) should be a no-op, got %+v floor %d", p2.entries, floor2)
	}
	if !c.allTombstones() {
		t.Error("tombstone-only interp chain not reported")
	}
}

// TestAsOfViewReads drives the read surface of View.AsOf directly across a
// scripted history: point lookups by ID and name, interpretation
// resolution, indexed selection with every constraint family, counts,
// pagination, and the boundary seqs (0 = before anything, the newest
// seq = the view itself, past it = ErrVersionGone).
func TestAsOfViewReads(t *testing.T) {
	db := memDB()
	clip, err := db.Ingest("clip", genVideo(8, 21), IngestOptions{Attrs: map[string]string{"lane": "a"}})
	if err != nil {
		t.Fatal(err)
	}
	clipSeq := db.Seq()
	cut, err := db.SelectDuration(clip, "cut", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	cutSeq := db.Seq()
	clipObj, err := db.Get(clip)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddMultimedia("mm", timebase.Millis, []core.ComponentRef{
		{Object: clip, Start: 0},
		{Object: cut, Start: 100},
	}, nil); err != nil {
		t.Fatal(err)
	}
	mmSeq := db.Seq()
	if err := db.Delete(cut); !errors.Is(err, ErrInUse) {
		t.Fatalf("delete of composed cut: %v, want ErrInUse", err)
	}

	v := db.CurrentView()
	asOf := func(seq uint64) *View {
		t.Helper()
		av, err := v.AsOf(seq)
		if err != nil {
			t.Fatalf("AsOf(%d): %v", seq, err)
		}
		return av
	}

	// Before anything: empty catalog.
	if av := asOf(0); av.Len() != 0 {
		t.Errorf("AsOf(0).Len = %d, want 0", av.Len())
	}

	av := asOf(clipSeq)
	if av.Len() != 1 {
		t.Fatalf("AsOf(clip).Len = %d, want 1", av.Len())
	}
	if o, err := av.Get(clip); err != nil || o.Name != "clip" {
		t.Errorf("Get(clip) = %v, %v", o, err)
	}
	if _, err := av.Get(cut); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(cut) before its creation: %v, want ErrNotFound", err)
	}
	if _, err := av.Lookup("cut"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Lookup(cut) before its creation: %v, want ErrNotFound", err)
	}
	if it, err := av.Interpretation(clipObj.Blob); err != nil || it == nil {
		t.Errorf("Interpretation(clip blob): %v, %v", it, err)
	}
	if _, err := av.Interpretation(clipObj.Blob + 999); !errors.Is(err, ErrNoInterp) {
		t.Errorf("Interpretation(unknown): %v, want ErrNoInterp", err)
	}

	// The newest seq is the view itself; past it nothing is committed.
	if av := asOf(v.Epoch()); av != v {
		t.Errorf("AsOf(newest %d) = epoch %d, want the view itself", v.Epoch(), av.Epoch())
	}
	if av, err := asOf(cutSeq).AsOf(v.Epoch()); err != nil || av != v {
		t.Errorf("AsOf(newest) of a past view = %v, %v; want the published view", av, err)
	}
	if _, err := v.AsOf(v.Epoch() + 1); !errors.Is(err, ErrVersionGone) || !strings.Contains(err.Error(), "past the newest seq") {
		t.Errorf("AsOf(future): %v, want ErrVersionGone past the newest seq", err)
	}

	// Indexed selection at mid-history: every constraint family.
	mid := asOf(cutSeq)
	kind := media.KindVideo
	if got := mid.SelectIndexed(IndexedQuery{Kind: &kind}, nil, -1); len(got) != 2 {
		t.Errorf("kind=video at cutSeq: %d objects, want 2", len(got))
	}
	der := core.ClassDerived
	if got := mid.SelectIndexed(IndexedQuery{Class: &der}, nil, -1); len(got) != 1 || got[0].Name != "cut" {
		t.Errorf("class=derived at cutSeq: %v", got)
	}
	if got := mid.SelectIndexed(IndexedQuery{Attrs: []AttrEq{{Key: "lane", Value: "a"}}}, nil, -1); len(got) != 1 || got[0].Name != "clip" {
		t.Errorf("attr lane=a: %v", got)
	}
	if got := mid.SelectIndexed(IndexedQuery{Reach: []core.ID{clip}}, nil, -1); len(got) != 1 || got[0].Name != "cut" {
		t.Errorf("derived_from clip at cutSeq: %v", got)
	}
	spanQ := IndexedQuery{Spans: []Span{{Start: 0, End: 0.01}}}
	if got, want := len(asOf(db.Seq()).SelectIndexed(spanQ, nil, -1)), len(v.SelectIndexed(spanQ, nil, -1)); got != want {
		t.Errorf("live-at query as of the newest seq diverges from the live view: %d vs %d", got, want)
	}
	if got := mid.SelectIndexed(spanQ, nil, -1); len(got) > 2 {
		t.Errorf("live at 0 mid-history: %d objects, more than exist", len(got))
	}
	if got := mid.SelectIndexed(IndexedQuery{}, func(o *core.Object) bool { return o.Name == "cut" }, -1); len(got) != 1 {
		t.Errorf("pred filter: %v", got)
	}
	if n := mid.CountIndexed(IndexedQuery{}, nil, 1); n != 1 {
		t.Errorf("CountIndexed limit 1 = %d", n)
	}

	// The multimedia object only exists from mmSeq on.
	mcls := core.ClassMultimedia
	if got := mid.SelectIndexed(IndexedQuery{Class: &mcls}, nil, -1); len(got) != 0 {
		t.Errorf("multimedia before mmSeq: %v", got)
	}
	late := asOf(mmSeq)
	if got := late.SelectIndexed(IndexedQuery{Class: &mcls}, nil, -1); len(got) != 1 || got[0].Name != "mm" {
		t.Errorf("multimedia at mmSeq: %v", got)
	}

	// Pagination: stable totals, exactly-once, offsets past the end.
	page1, total := late.SelectPage(IndexedQuery{}, nil, 0, 2)
	page2, total2 := late.SelectPage(IndexedQuery{}, nil, 2, 2)
	if total != 3 || total2 != 3 || len(page1) != 2 || len(page2) != 1 {
		t.Errorf("pages %d+%d of %d/%d, want 2+1 of 3", len(page1), len(page2), total, total2)
	}
	if empty, total3 := late.SelectPage(IndexedQuery{}, nil, 99, 2); len(empty) != 0 || total3 != 3 {
		t.Errorf("page past end: %d items, total %d", len(empty), total3)
	}
}

// TestAsOfVersionGone pins the retention refusal on the View.AsOf
// surface itself: below the floor, ErrVersionGone; at it, a view.
func TestAsOfVersionGone(t *testing.T) {
	db := New(blob.NewMemStore(), WithVersionRetention(1))
	clip, err := db.Ingest("clip", genVideo(6, 22), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := db.SelectDuration(clip, "cut", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(cut); err != nil {
		t.Fatal(err)
	}
	v := db.CurrentView()
	floor := v.VersionFloor()
	if floor == 0 {
		t.Fatal("retention 1 never raised the floor")
	}
	if _, err := v.AsOf(floor - 1); !errors.Is(err, ErrVersionGone) {
		t.Errorf("AsOf(%d) below floor: %v, want ErrVersionGone", floor-1, err)
	}
	av, err := v.AsOf(floor)
	if err != nil {
		t.Fatalf("AsOf(floor=%d): %v", floor, err)
	}
	if _, err := av.Lookup("clip"); err != nil {
		t.Errorf("clip unreadable at the floor: %v", err)
	}
	if err := v.VerifyVersions(); err != nil {
		t.Error(err)
	}
}

// TestFaultSyncRollbackRewritesVersionChain: a sync whose journal
// append fails is rolled back from the live object AND from its
// version chain — no as-of read may surface the unacknowledged
// constraint.
func TestFaultSyncRollbackRewritesVersionChain(t *testing.T) {
	dir := t.TempDir()
	db := memDB()
	a, err := db.Ingest("a", genVideo(6, 31), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Ingest("b", genVideo(6, 32), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := db.AddMultimedia("mm", timebase.Millis, []core.ComponentRef{
		{Object: a, Start: 0},
		{Object: b, Start: 50},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mmSeq := db.Seq()

	attachFaultJournal(t, db, dir, faultfs.NewInjector(faultfs.Rule{Op: "journal.append", Nth: 1}))

	if err := db.AddSync(mm, 0, 1, 10); !errors.Is(err, ErrJournal) {
		t.Fatalf("AddSync with failing journal: %v, want ErrJournal", err)
	}
	failedSeq := db.Seq()
	obj, err := db.Get(mm)
	if err != nil {
		t.Fatal(err)
	}
	if len(obj.Multimedia.Syncs) != 0 {
		t.Fatalf("rolled-back sync still on live object: %+v", obj.Multimedia.Syncs)
	}
	v := db.CurrentView()
	if err := v.VerifyVersions(); err != nil {
		t.Fatalf("chain inconsistency after rollback: %v", err)
	}
	// The failed commit's seq is never reused, and no view was
	// published at it: until a later commit lands, it is past the head.
	if _, err := v.AsOf(failedSeq); failedSeq <= mmSeq || !errors.Is(err, ErrVersionGone) {
		t.Fatalf("AsOf(%d), the failed sync's seq over head %d: %v, want ErrVersionGone", failedSeq, v.Epoch(), err)
	}
	av, err := v.AsOf(mmSeq)
	if err != nil {
		t.Fatalf("AsOf(%d): %v", mmSeq, err)
	}
	if o, err := av.Get(mm); err != nil || len(o.Multimedia.Syncs) != 0 {
		t.Errorf("as-of read at %d surfaces the rolled-back sync: %v, %v", mmSeq, o, err)
	}

	// The fault was one-shot: the retry lands, and only reads at or
	// after it see the constraint.
	if err := db.AddSync(mm, 0, 1, 10); err != nil {
		t.Fatal(err)
	}
	ackSeq := db.Seq()
	v = db.CurrentView()
	if err := v.VerifyVersions(); err != nil {
		t.Fatal(err)
	}
	av, err = v.AsOf(ackSeq)
	if err != nil {
		t.Fatal(err)
	}
	o, err := av.Get(mm)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Multimedia.Syncs) != 1 {
		t.Errorf("acknowledged sync missing from as-of read: %+v", o.Multimedia.Syncs)
	}
	prev, err := v.AsOf(ackSeq - 1)
	if err != nil {
		t.Fatal(err)
	}
	if o, err := prev.Get(mm); ackSeq-1 != failedSeq || err != nil || len(o.Multimedia.Syncs) != 0 {
		t.Errorf("read at %d, the failed sync's seq, before the ack at %d sees the sync: %v, %v", ackSeq-1, ackSeq, o, err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// syncFixture is a multimedia object over one ingested clip, with the
// seq of its AddMultimedia.
func syncFixture(t *testing.T, db *DB) (mm core.ID, mmSeq uint64) {
	t.Helper()
	a, err := db.Ingest("a", genVideo(4, 33), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mm, err = db.AddMultimedia("mm", timebase.Millis, []core.ComponentRef{{Object: a}, {Object: a, Start: 50}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return mm, db.Seq()
}

// TestFaultFailedSyncPublishesNothing: a sync whose journal append
// fails never reaches a reader — no epoch is published for it, so no
// as_of= pin can be served the unacknowledged constraint.
func TestFaultFailedSyncPublishesNothing(t *testing.T) {
	db := memDB()
	mm, _ := syncFixture(t, db)
	attachFaultJournal(t, db, t.TempDir(), faultfs.NewInjector(faultfs.Rule{Op: "journal.append", Nth: 1}))

	before := db.CurrentView().Epoch()
	if err := db.AddSync(mm, 0, 1, 10); !errors.Is(err, ErrJournal) {
		t.Fatalf("AddSync with failing journal: %v, want ErrJournal", err)
	}
	after := db.CurrentView().Epoch()
	if after != before {
		t.Errorf("a failed sync published %d epochs", after-before)
	}
	for ep := uint64(0); ep <= after; ep++ {
		v, err := db.CurrentView().AsOf(ep)
		if err != nil {
			continue
		}
		if o, err := v.Get(mm); err == nil && len(o.Multimedia.Syncs) != 0 {
			t.Errorf("epoch %d of %d..%d serves the unacknowledged constraint: %+v", ep, before, after, o.Multimedia.Syncs)
		}
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultFailedSyncKeepsVersionFloor: a mutation that never happened
// prunes nothing. With retention 2 the object's chain is full after one
// acknowledged sync; a failing second one must leave the version floor,
// and the as-of read the floor still allows, exactly as they were.
func TestFaultFailedSyncKeepsVersionFloor(t *testing.T) {
	db := New(blob.NewMemStore(), WithVersionRetention(2))
	mm, mmSeq := syncFixture(t, db)
	inj := faultfs.NewInjector()
	attachFaultJournal(t, db, t.TempDir(), inj)
	if err := db.AddSync(mm, 0, 1, 10); err != nil {
		t.Fatal(err)
	}
	floor := db.CurrentView().VersionFloor()
	if floor > mmSeq {
		t.Fatalf("floor %d already past the AddMultimedia at %d", floor, mmSeq)
	}

	inj.Add(faultfs.Rule{Op: "journal.append", Nth: inj.Count("journal.append") + 1})
	if err := db.AddSync(mm, 0, 1, 20); !errors.Is(err, ErrJournal) {
		t.Fatalf("AddSync with failing journal: %v, want ErrJournal", err)
	}
	v := db.CurrentView()
	if got := v.VersionFloor(); got != floor {
		t.Errorf("version floor %d → %d after a failed sync", floor, got)
	}
	av, err := v.AsOf(mmSeq)
	if err != nil {
		t.Fatalf("AsOf(%d) after a failed sync: %v", mmSeq, err)
	}
	if o, err := av.Get(mm); err != nil || len(o.Multimedia.Syncs) != 0 {
		t.Errorf("AsOf(%d).Get(mm) = %v, %v; want the object as composed", mmSeq, o, err)
	}
	if err := v.VerifyVersions(); err != nil {
		t.Error(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyVersionsDetectsCorruption hand-corrupts cloned views one
// invariant at a time and asserts VerifyVersions names each violation.
// The live catalog never sees these states — the point is that if a
// bug ever produced one, the verifier (and with it the stress and
// crash batteries that call it) would not stay silent.
func TestVerifyVersionsDetectsCorruption(t *testing.T) {
	db := New(blob.NewMemStore())
	clip, err := db.Ingest("clip", genVideo(6, 41), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := db.CurrentView()
	if err := base.VerifyVersions(); err != nil {
		t.Fatalf("healthy view does not verify: %v", err)
	}
	var anyInterp blob.ID
	base.interpVers.ascend(func(id blob.ID, _ *interpVerChain) bool {
		anyInterp = id
		return false
	})

	clone := func() *View {
		n := *base
		return &n
	}
	cases := []struct {
		name    string
		corrupt func(v *View)
		want    string
	}{
		{"empty chain", func(v *View) {
			v.vers = v.vers.set(0, 999, &verChain{name: "clip"})
		}, "empty version chain"},
		{"all tombstones retained", func(v *View) {
			v.vers = v.vers.set(0, 999, &verChain{name: "clip", entries: []verEntry{{seq: 1}}})
		}, "all-tombstone chain"},
		{"seq order violation", func(v *View) {
			o := chainObj(999, "clip")
			v.vers = v.vers.set(0, 999, &verChain{name: "clip", entries: []verEntry{{seq: 5, val: o}, {seq: 5, val: o}}})
		}, "seq order violation"},
		{"foreign object in chain", func(v *View) {
			v.vers = v.vers.set(0, 999, &verChain{name: "clip", entries: []verEntry{{seq: 5, val: chainObj(7, "clip")}}})
		}, "holds version of"},
		{"live tail without object", func(v *View) {
			v.vers = v.vers.set(0, 999, &verChain{name: "clip", entries: []verEntry{{seq: 5, val: chainObj(999, "clip")}}})
		}, "not listed under"},
		{"tombstone tail over live object", func(v *View) {
			c, _ := v.vers.get(clip)
			v.vers = v.vers.set(0, clip, c.appended(verEntry{seq: 99}))
		}, "live chain tails"},
		{"live object without chain", func(v *View) {
			v.vers = v.vers.del(0, clip)
		}, "no such chain"},
		{"two live objects under one name", func(v *View) {
			v.vers = v.vers.set(0, 999, &verChain{name: "clip", entries: []verEntry{{seq: 5, val: chainObj(999, "clip")}}})
			ids, _ := v.chainsByName.get("clip")
			v.chainsByName = v.chainsByName.set(0, "clip", append(slices.Clone(ids), 999))
		}, "live chains under"},
		{"chain missing from name directory", func(v *View) {
			v.chainsByName = v.chainsByName.del(0, "clip")
		}, "not listed under"},
		{"dangling name directory entry", func(v *View) {
			v.chainsByName = v.chainsByName.set(0, "x", []core.ID{999})
		}, "no such chain"},
		{"count mismatch", func(v *View) {
			v.count++
		}, "live chain tails"},
		{"degenerate interp chain", func(v *View) {
			v.interpVers = v.interpVers.set(0, 9999, &interpVerChain{})
		}, "interp chain"},
		{"interp seq order violation", func(v *View) {
			it := interpAt(v.interpVers, anyInterp, seqNow)
			v.interpVers = v.interpVers.set(0, anyInterp, &interpVerChain{entries: []interpVerEntry{{seq: 3, val: it}, {seq: 3, val: it}}})
		}, "interp chain"},
		{"interp tail liveness mismatch", func(v *View) {
			it := interpAt(v.interpVers, anyInterp, seqNow)
			v.interpVers = v.interpVers.set(0, 9999, &interpVerChain{entries: []interpVerEntry{{seq: 3, val: it}}})
		}, "live interp chain tails"},
		{"live interp without chain", func(v *View) {
			v.interpVers = v.interpVers.del(0, anyInterp)
		}, "live interp chain tails"},
		{"interp count mismatch", func(v *View) {
			v.interpCount++
		}, "live interp chain tails"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := clone()
			tc.corrupt(v)
			err := v.VerifyVersions()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the violation (%q)", err, tc.want)
			}
		})
	}
}

// TestAsOfNameReuseAcrossDelete: a name freed by a delete and taken
// again names two chains. An as-of read before the delete resolves the
// old object, after the re-add the new one, and in between nothing —
// through the name directory (Lookup) and through a query alike.
func TestAsOfNameReuseAcrossDelete(t *testing.T) {
	db := memDB()
	clip, err := db.Ingest("clip", genVideo(6, 51), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oldID, err := db.SelectDuration(clip, "a", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	addSeq := db.Seq()
	if err := db.Delete(oldID); err != nil {
		t.Fatal(err)
	}
	delSeq := db.Seq()
	if _, err := db.SelectDuration(clip, "filler", 0, 1); err != nil {
		t.Fatal(err)
	}
	newID, err := db.SelectDuration(clip, "a", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	reAddSeq := db.Seq()
	if newID == oldID {
		t.Fatalf("re-added %q kept ID %v", "a", oldID)
	}

	v := db.CurrentView()
	if err := v.VerifyVersions(); err != nil {
		t.Fatal(err)
	}
	named := func(o *core.Object) bool { return o.Name == "a" }
	for _, tc := range []struct {
		seq  uint64
		want core.ID // 0: the name resolves to nothing
	}{
		{addSeq - 1, 0}, {addSeq, oldID}, {delSeq - 1, oldID},
		{delSeq, 0}, {reAddSeq - 1, 0},
		{reAddSeq, newID},
	} {
		av, err := v.AsOf(tc.seq)
		if err != nil {
			t.Fatalf("AsOf(%d): %v", tc.seq, err)
		}
		o, err := av.Lookup("a")
		rows := av.SelectIndexed(IndexedQuery{}, named, -1)
		if tc.want == 0 {
			if !errors.Is(err, ErrNotFound) || len(rows) != 0 {
				t.Errorf("as of %d: Lookup = %v, %v and %d query rows; want nothing", tc.seq, o, err, len(rows))
			}
			continue
		}
		if err != nil || o.ID != tc.want {
			t.Errorf("as of %d: Lookup = %v, %v; want %v", tc.seq, o, err, tc.want)
		}
		if len(rows) != 1 || rows[0].ID != tc.want {
			t.Errorf("as of %d: query rows %v; want exactly %v", tc.seq, rows, tc.want)
		}
	}
}

// historyDB builds a catalog of n version chains over two ingested
// clips: stored objects sharing a clip's BLOB (so each has a timeline
// span — every sixteenth the long clip's, the rest the short one's),
// with every fourth since deleted, its chain ending in a tombstone.
// Returns a seq at which every one of the n objects was still live.
func historyDB(tb testing.TB, n int) (db *DB, fullSeq uint64) {
	tb.Helper()
	db = New(blob.NewMemStore())
	var srcs [2]*core.Object
	for i, frames := range []int{4, 8} {
		id, err := db.Ingest(fmt.Sprintf("clip%d", i), genVideo(frames, 61), IngestOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		if srcs[i], err = db.Get(id); err != nil {
			tb.Fatal(err)
		}
	}
	ids := make([]core.ID, n-len(srcs))
	for i := range ids {
		src := srcs[0]
		if i%16 == 0 {
			src = srcs[1]
		}
		id, err := db.AddNonDerived(fmt.Sprintf("o%05d", i), src.Blob, src.Track, nil)
		if err != nil {
			tb.Fatal(err)
		}
		ids[i] = id
	}
	fullSeq = db.Seq()
	for i := 0; i < len(ids); i += 4 {
		if err := db.Delete(ids[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return db, fullSeq
}

// TestAsOfPointReadCostShape pins the lazy cost model: taking an as-of
// view and resolving one name allocates a small constant, the same on
// a 1k-chain and an 8k-chain catalog — nothing is sized by the catalog.
func TestAsOfPointReadCostShape(t *testing.T) {
	allocs := func(chains int) float64 {
		db, seq := historyDB(t, chains)
		v := db.CurrentView()
		return testing.AllocsPerRun(50, func() {
			av, err := v.AsOf(seq)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := av.Lookup("o00000"); err != nil { // deleted since: only the chain knows it
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(8000)
	if small != large || small > 4 {
		t.Errorf("AsOf+Lookup allocates %.0f on 1k chains, %.0f on 8k; want equal and at most 4", small, large)
	}
}
