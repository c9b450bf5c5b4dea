package catalog

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/media"
	"timedmedia/internal/timebase"
	"timedmedia/internal/wal"
)

// ack is one acknowledged commit: the chain of id holds an entry at seq.
type ack struct {
	id   core.ID
	name string
	seq  uint64
}

// chainSeq returns the seq of the newest entry of id's chain in v.
func chainSeq(t *testing.T, v *View, id core.ID, name string) uint64 {
	t.Helper()
	c, ok := v.vers.get(id)
	if !ok {
		t.Errorf("no version chain for %v (%q)", id, name)
		return 0
	}
	return c.tail().seq
}

// heldBy reports whether v's chain of a.id, under a.name, has an entry
// at a.seq.
func (a ack) heldBy(v *View) bool {
	c, ok := v.vers.get(a.id)
	return ok && c.name == a.name && slices.ContainsFunc(c.entries, func(e verEntry) bool { return e.seq == a.seq })
}

// newestSeq returns the highest seq any chain in v holds.
func newestSeq(v *View) uint64 {
	var top uint64
	v.vers.ascend(func(_ core.ID, c *verChain) bool {
		top = max(top, c.tail().seq)
		return true
	})
	v.interpVers.ascend(func(_ blob.ID, c *interpVerChain) bool {
		top = max(top, c.tail().seq)
		return true
	})
	return top
}

// asOfDiff reports how v differs from its own as-of view,
// v.AsOf(v.Epoch()), or "" when it does not: every name in the
// directory resolves to the same object, and a kind page and an attr
// query to the same IDs — the indexes against one pass over the chains
// at the view's seq.
func asOfDiff(v *View) string {
	a, err := v.AsOf(v.Epoch())
	if err != nil {
		return err.Error()
	}
	msg := ""
	v.chainsByName.ascend(func(name string, _ []core.ID) bool {
		lo, _ := v.Lookup(name)
		if ao, _ := a.Lookup(name); ao != lo {
			msg = fmt.Sprintf("Lookup(%q) = %p, as of its epoch %p", name, lo, ao)
		}
		return msg == ""
	})
	if msg != "" {
		return msg
	}
	video := media.KindVideo
	for _, sel := range []IndexedQuery{{Kind: &video}, {Attrs: []AttrEq{{Key: "batch", Value: "a"}}}} {
		lp, lt := v.SelectPage(sel, nil, 8, 16)
		ap, at := a.SelectPage(sel, nil, 8, 16)
		if l, r := pageIDs(lp, lt), pageIDs(ap, at); l != r {
			return fmt.Sprintf("page %+v: %s, as of its epoch %s", sel, l, r)
		}
	}
	return ""
}

// pageIDs renders a page as its total and its IDs.
func pageIDs(objs []*core.Object, total int) string {
	s := fmt.Sprint(total, ":")
	for _, o := range objs {
		s += fmt.Sprint(" ", o.ID)
	}
	return s
}

// TestViewsArePrefixes: with a journal attached, eight writers adding
// cuts and batches, one writer deleting and syncing (serial commits), a
// checkpointer and pinning readers, every pinned view is exactly the
// acknowledged records up to its Epoch: it holds no record above it,
// every commit acknowledged by the end of the run at or below it, and
// ViewAt of its Epoch is the view itself. Each is also its own as-of
// view at that Epoch (asOfDiff).
func TestViewsArePrefixes(t *testing.T) {
	const (
		writers = 8
		cuts    = 60
		readers = 2
	)
	dir := t.TempDir()
	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, fs, WithEpochRetention(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseJournal()
	clip, err := db.Ingest("clip", genVideo(4, 71), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := db.AddMultimedia("mm", timebase.Millis, []core.ComponentRef{{Object: clip}, {Object: clip, Start: 40}}, nil)
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu   sync.Mutex
		acks []ack
	)
	acked := func(a ...ack) {
		mu.Lock()
		acks = append(acks, a...)
		mu.Unlock()
	}
	var stop atomic.Bool
	var wg, bg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cuts; i++ {
				name := fmt.Sprintf("w%d-%02d", w, i)
				if i%4 == 3 {
					items := []BatchItem{
						{Name: name + "a", Op: "video-edit", Inputs: []core.ID{clip}, Params: cutParams(0, 2), Attrs: map[string]string{"batch": "a"}},
						{Name: name + "b", Op: "video-edit", InputNames: []string{name + "a"}, Params: cutParams(0, 1)},
					}
					ids, err := db.AddBatch(items)
					if err != nil {
						t.Errorf("%s: %v", name, err)
						continue
					}
					v := db.CurrentView()
					acked(ack{ids[0], items[0].Name, chainSeq(t, v, ids[0], items[0].Name)},
						ack{ids[1], items[1].Name, chainSeq(t, v, ids[1], items[1].Name)})
					continue
				}
				id, err := db.SelectDuration(clip, name, 0, 2)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				acked(ack{id, name, chainSeq(t, db.CurrentView(), id, name)})
			}
		}(w)
	}
	wg.Add(1)
	go func() { // the serial writer: its own cut, deleted, and a sync
		defer wg.Done()
		for i := 0; i < cuts/2; i++ {
			name := fmt.Sprintf("serial-%02d", i)
			id, err := db.SelectDuration(clip, name, 1, 3)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			acked(ack{id, name, chainSeq(t, db.CurrentView(), id, name)})
			if err := db.Delete(id); err != nil {
				t.Errorf("delete %s: %v", name, err)
				continue
			}
			acked(ack{id, name, chainSeq(t, db.CurrentView(), id, name)})
			if err := db.AddSync(mm, 0, 1, int64(i)); err != nil {
				t.Errorf("sync %d: %v", i, err)
				continue
			}
			acked(ack{mm, "mm", chainSeq(t, db.CurrentView(), mm, "mm")})
		}
	}()
	bg.Add(1)
	go func() {
		defer bg.Done()
		for !stop.Load() {
			if err := db.Checkpoint(dir); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			time.Sleep(time.Millisecond) // pacing: leave the writers CPU
		}
	}()
	pinned := make([][]*View, readers)
	for r := range pinned {
		bg.Add(1)
		go func(r int) {
			defer bg.Done()
			for !stop.Load() {
				if v := db.CurrentView(); len(pinned[r]) == 0 || pinned[r][len(pinned[r])-1] != v {
					pinned[r] = append(pinned[r], v)
				}
			}
		}(r)
	}
	wg.Wait()
	stop.Store(true)
	bg.Wait()

	var views []*View
	for _, p := range pinned {
		views = append(views, p...)
	}
	views = append(views, db.CurrentView())
	bad := 0
	for _, v := range views {
		top, missing := newestSeq(v), 0
		for _, a := range acks {
			if a.seq <= max(v.Epoch(), top) && !a.heldBy(v) {
				missing++
			}
		}
		asOf := asOfDiff(v)
		if got, err := db.ViewAt(v.Epoch()); top > v.Epoch() || missing > 0 || err != nil || got != v || asOf != "" {
			if bad++; bad <= 5 {
				t.Errorf("view %d: newest record %d, %d acknowledged commits at or below it missing; ViewAt: %p, %v (want %p); as-of view: %q",
					v.Epoch(), top, missing, got, err, v, asOf)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d pinned views are not exact seq prefixes and their own as-of views", bad, len(views))
	}
	t.Logf("%d pinned views, %d acknowledged commits", len(views), len(acks))
}

// TestFollowerEpochsMatchPrimary: a seq inside a batch names no view,
// and a follower applying the primary's journal record by record is,
// whenever it reaches a seq the primary published a view at, at a view
// with the same Epoch — the ETag a read answers — and the same objects.
func TestFollowerEpochsMatchPrimary(t *testing.T) {
	dir := t.TempDir()
	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	primary, err := Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	var epochs []uint64
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, primary.CurrentView().Epoch())
	}
	clip, err := primary.Ingest("clip", genVideo(3, 72), IngestOptions{})
	step(err)
	cut, err := primary.SelectDuration(clip, "cut", 0, 2)
	step(err)
	_, err = primary.AddBatch([]BatchItem{
		{Name: "b1", Op: "video-edit", Inputs: []core.ID{clip}, Params: cutParams(0, 2)},
		{Name: "b2", Op: "video-edit", InputNames: []string{"b1"}, Params: cutParams(0, 1)},
		{Name: "b3", Op: "video-edit", InputNames: []string{"b2"}, Params: cutParams(0, 1)},
	})
	step(err)
	for _, s := range []uint64{epochs[2] - 2, epochs[2] - 1} { // inside the batch
		if _, err := primary.ViewAt(s); !errors.Is(err, ErrEpochGone) {
			t.Errorf("ViewAt(%d), a seq inside a batch: %v, want ErrEpochGone", s, err)
		}
	}
	step(primary.Delete(cut))
	names := func(v *View) []string {
		var out []string
		for _, o := range v.Select(func(*core.Object) bool { return true }) {
			out = append(out, o.Name)
		}
		return out
	}

	follower := New(primary.Store())
	fdir := t.TempDir()
	if err := follower.OpenJournal(fdir); err != nil {
		t.Fatal(err)
	}
	defer follower.CloseJournal()
	matched := 0
	if _, err := wal.ReplaySegments(dir, func(rec []byte) error {
		seq, err := follower.ApplyReplicated(rec)
		if err != nil || !slices.Contains(epochs, seq) {
			return err
		}
		matched++
		pv, err := primary.ViewAt(seq)
		if err != nil {
			return err
		}
		fv := follower.CurrentView()
		if fv.Epoch() != pv.Epoch() || !slices.Equal(names(fv), names(pv)) {
			t.Errorf("at seq %d: follower epoch %d %v, primary epoch %d %v", seq, fv.Epoch(), names(fv), pv.Epoch(), names(pv))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if matched != len(epochs) {
		t.Errorf("the follower passed %d of the primary's epochs %v", matched, epochs)
	}
	if f, p := follower.CurrentView().Epoch(), primary.CurrentView().Epoch(); f != p {
		t.Errorf("caught-up follower at epoch %d, primary at %d", f, p)
	}
	if err := primary.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenPinsOnlyTheOpenedView: the views recovery publishes on the
// way — the snapshot's, the delta's, the one before the index pass and
// each replayed record's — are not pinnable after Open. Every epoch
// ViewAt accepts answers a kind query like the current view.
func TestReopenPinsOnlyTheOpenedView(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	clip := baseCatalog(t, db, dir, 4, 73) // a base snapshot
	for i := 0; i < 3; i++ {
		if _, err := db.SelectDuration(clip, fmt.Sprintf("delta%d", i), 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(dir); err != nil { // a delta
		t.Fatal(err)
	}
	if _, err := db.SelectDuration(clip, "tail", 0, 2); err != nil { // a journal tail
		t.Fatal(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	db2 := openDB(t, dir)
	defer db2.CloseJournal()
	if rec := db2.Recovery(); rec.CheckpointsApplied != 1 || rec.JournalRecords != 1 {
		t.Fatalf("recovery = %+v, want a delta and one replayed record", rec)
	}
	video := media.KindVideo
	cur := db2.CurrentView()
	want := len(cur.SelectIndexed(IndexedQuery{Kind: &video}, nil, -1))
	if want != cur.Len() {
		t.Fatalf("current view: %d video objects of %d", want, cur.Len())
	}
	for e := uint64(0); e <= cur.Epoch(); e++ {
		v, err := db2.ViewAt(e)
		if err != nil {
			continue
		}
		if got := len(v.SelectIndexed(IndexedQuery{Kind: &video}, nil, -1)); got != want || v.Len() != cur.Len() {
			t.Errorf("ViewAt(%d): kind=video returns %d of %d objects; the current view (epoch %d) %d of %d",
				e, got, v.Len(), cur.Epoch(), want, cur.Len())
		}
	}
}
