package catalog

import (
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

// asOfDiff reports how a, a view of v's epoch read from another
// state's chains (ViewAt), differs from v, or "" when it does not: the
// same live count, every name in v's directory resolving to the same
// object, and a kind page and an attr query giving the same IDs — v's
// indexes against one pass over a's chains at the epoch's seq.
func asOfDiff(v, a *View) string {
	if v.Len() != a.Len() {
		return fmt.Sprintf("%d objects, read from the chains %d", v.Len(), a.Len())
	}
	msg := ""
	v.chainsByName.ascend(func(name string, _ []core.ID) bool {
		lo, _ := v.Lookup(name)
		if ao, _ := a.Lookup(name); ao != lo {
			msg = fmt.Sprintf("Lookup(%q) = %p, read from the chains %p", name, lo, ao)
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
			return fmt.Sprintf("page %+v: %s, read from the chains %s", sel, l, r)
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
// ViewAt of its Epoch, read from the final state's chains, holds what
// it holds (asOfDiff).
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
	db, err := Open(dir, fs)
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
		asOf := "ViewAt failed"
		got, err := db.ViewAt(v.Epoch())
		if err == nil {
			asOf = asOfDiff(v, got)
		}
		if top > v.Epoch() || missing > 0 || err != nil || got.Epoch() != v.Epoch() || asOf != "" {
			if bad++; bad <= 5 {
				t.Errorf("view %d: newest record %d, %d acknowledged commits at or below it missing; ViewAt: %v; read from the chains: %q",
					v.Epoch(), top, missing, err, asOf)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d pinned views are not exact seq prefixes equal to ViewAt of their epoch", bad, len(views))
	}
	t.Logf("%d pinned views, %d acknowledged commits", len(views), len(acks))
}

// TestFollowerEpochsMatchPrimary: the view at a seq inside a batch is
// the batch's prefix up to that seq, and a follower applying the
// primary's journal record by record is, whenever it reaches a seq the
// primary published a view at, at a view with the same Epoch — the
// ETag a read answers — and the same objects as ViewAt of that seq.
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
	names := func(v *View) []string {
		var out []string
		for _, o := range v.Select(func(*core.Object) bool { return true }) {
			out = append(out, o.Name)
		}
		return out
	}
	for i, s := range []uint64{epochs[2] - 2, epochs[2] - 1} { // inside the batch
		want := append([]string{"clip", "cut"}, []string{"b1", "b2"}[:i+1]...)
		if v, err := primary.ViewAt(s); err != nil || v.Epoch() != s || !slices.Equal(names(v), want) {
			t.Errorf("ViewAt(%d), a seq inside a batch: %v; want epoch %d holding %v", s, err, s, want)
		}
	}
	step(primary.Delete(cut))

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
