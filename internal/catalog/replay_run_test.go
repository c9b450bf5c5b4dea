package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/timebase"
	"timedmedia/internal/wal"
)

// replayHistory is a journaled history on disk and what its primary
// rendered after each commit.
type replayHistory struct {
	dir     string
	live    map[uint64]string // catalogDump after the commit that ended at seq
	batches [][2]uint64       // the (first, last] seqs of each multi-record commit
	last    uint64
}

// runReplayHistory writes a seeded random history into a fresh journaled
// directory and never checkpoints it: clips ingested, cut and composed,
// syncs, deletes down to a BLOB's last reader, and group-commit batches
// whose items name earlier items. With bulk, batches of cuts first fill
// the journal up to just short of replayRun records and one batch then
// straddles it, so replay must split that batch across two runs. The
// primary's dump is kept after each commit whose seq watch accepts.
func runReplayHistory(t *testing.T, seed int64, steps int, bulk bool, segRecords int64, watch func(uint64) bool) replayHistory {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := replayHistory{dir: t.TempDir(), live: map[uint64]string{}}
	store, err := blob.OpenFileStore(h.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db, err := Open(h.dir, store, WithWALSegmentRecords(segRecords))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	name := func(prefix string) string { n++; return fmt.Sprintf("%s%04d", prefix, n) }
	pick := func(pred func(*core.Object) bool) *core.Object {
		objs := db.Select(pred)
		if len(objs) == 0 {
			return nil
		}
		return objs[rng.Intn(len(objs))]
	}
	stored := func(o *core.Object) bool { return o.Class == core.ClassNonDerived }
	committed := func(prev uint64) {
		if seq := db.Seq(); seq > prev+1 {
			h.batches = append(h.batches, [2]uint64{prev, seq})
		}
		if watch(db.Seq()) {
			h.live[db.Seq()] = catalogDump(db)
		}
	}
	do := func(what string, err error, prev uint64) {
		if err != nil && !errors.Is(err, ErrInUse) {
			t.Fatalf("%s: %v", what, err)
		}
		committed(prev)
	}
	cuts := func(k int) []BatchItem {
		src := pick(stored)
		items := make([]BatchItem, k)
		for i := range items {
			items[i] = BatchItem{Name: name("bat"), Op: "video-edit", Inputs: []core.ID{src.ID}, Params: cutParams(0, 1)}
			if i > 0 && rng.Intn(2) == 0 {
				// Chain on the item before: a name only this batch defines.
				items[i].Inputs, items[i].InputNames = nil, []string{items[i-1].Name}
			}
		}
		return items
	}
	ingest := func() {
		prev := db.Seq()
		_, err := db.Ingest(name("clip"), genVideo(2, seed*1000+int64(n)), IngestOptions{})
		do("ingest", err, prev)
	}
	for i := 0; i < 3; i++ {
		ingest()
	}
	if bulk {
		for db.Seq() < replayRun-48 {
			prev := db.Seq()
			_, err := db.AddBatch(cuts(min(48, replayRun-48-int(db.Seq()))))
			do("bulk batch", err, prev)
		}
		prev := db.Seq()
		_, err := db.AddBatch(cuts(64))
		do("straddling batch", err, prev)
	}
	for step := 0; step < steps; step++ {
		prev := db.Seq()
		switch r := rng.Intn(20); {
		case r < 3:
			ingest()
		case r < 8:
			src := pick(stored)
			_, err := db.SelectDuration(src.ID, name("cut"), 0, 1)
			do("cut", err, prev)
		case r < 11:
			_, err := db.AddBatch(cuts(2 + rng.Intn(6)))
			do("batch", err, prev)
		case r < 13:
			a, b := pick(func(*core.Object) bool { return true }), pick(func(*core.Object) bool { return true })
			comps := []core.ComponentRef{{Object: a.ID}, {Object: b.ID, Start: 40}}
			_, err := db.AddMultimedia(name("mix"), timebase.Millis, comps, nil)
			do("compose", err, prev)
		case r < 15:
			if mm := pick(func(o *core.Object) bool { return o.Class == core.ClassMultimedia }); mm != nil {
				do("sync", db.AddSync(mm.ID, 0, 1, int64(rng.Intn(50))), prev)
			}
		default:
			// Keep a clip to cut from.
			if o := pick(func(*core.Object) bool { return true }); o != nil && len(db.Select(stored)) > 1 {
				do("delete", db.Delete(o.ID), prev)
			}
		}
	}
	h.last = db.Seq()
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	return h
}

// journalFrames returns every record dir's segments hold, in log order.
func journalFrames(t testing.TB, dir string) [][]byte {
	t.Helper()
	var frames [][]byte
	if _, err := wal.ReplaySegments(dir, func(d []byte) error {
		frames = append(frames, d)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return frames
}

// reopenDump opens dir with opts and returns its dump and what its
// recovery reported.
func reopenDump(t *testing.T, dir string, opts ...Option) (string, RecoveryInfo) {
	t.Helper()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db, err := Open(dir, store, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseJournal()
	if err := db.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
	return catalogDump(db), db.Recovery()
}

// checkReplayRuns checks, for every seq check accepts, that a reopen of
// h capped there (WithReplayCap) — replay in runs — renders the dump of
// a catalog that applied the same journal one record per commit, and
// that the latter renders the primary's dump wherever the primary
// published a view at that seq. Then it tears the last segment's tail
// and checks that an uncapped reopen cuts the tear off and renders the
// whole history.
func checkReplayRuns(t *testing.T, h replayHistory, check func(uint64) bool) {
	t.Helper()
	store, err := blob.OpenFileStore(h.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ref := New(store)
	frames := journalFrames(t, h.dir)
	var final string
	checked, againstLive := 0, 0
	for _, f := range frames {
		seq, err := ref.ApplyReplicated(f)
		if err != nil {
			t.Fatal(err)
		}
		if seq == h.last {
			final = catalogDump(ref)
		}
		if !check(seq) {
			continue
		}
		want := catalogDump(ref)
		if live, ok := h.live[seq]; ok {
			againstLive++
			if live != want {
				t.Fatalf("seq %d: one record per commit renders\n%s\nthe primary rendered\n%s", seq, want, live)
			}
		}
		got, rec := reopenDump(t, h.dir, WithReplayCap(seq))
		if got != want {
			t.Fatalf("reopen capped at seq %d renders\n%s\nwant\n%s", seq, got, want)
		}
		if rec.JournalRecords+rec.JournalSkipped != len(frames) || uint64(rec.JournalRecords) != seq {
			t.Fatalf("capped at seq %d: %d replayed, %d skipped of %d records", seq, rec.JournalRecords, rec.JournalSkipped, len(frames))
		}
		checked++
	}
	if checked == 0 || againstLive == 0 {
		t.Fatalf("%d capped reopens, %d against the primary's dump", checked, againstLive)
	}

	idxs, err := wal.ListSegments(h.dir)
	if err != nil || len(idxs) == 0 {
		t.Fatalf("segments %v, %v", idxs, err)
	}
	f, err := os.OpenFile(wal.SegmentFile(h.dir, idxs[len(idxs)-1]), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Write([]byte("WAL1\x00\x00\x01\x00torn"))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	got, rec := reopenDump(t, h.dir)
	if !rec.JournalTorn || rec.JournalRecords != len(frames) || rec.SegmentsReplayed != len(idxs) {
		t.Fatalf("reopen past a torn tail: %+v, want %d records over %d segments and the tear", rec, len(frames), len(idxs))
	}
	if got != final {
		t.Fatalf("reopen past a torn tail renders\n%s\nwant\n%s", got, final)
	}
}

// TestReplayRunsEqualPerRecordReplay: replay commits a journal in runs
// of at most replayRun records, and each run is one edit. Over random
// histories — one segment, or segments of a few records, so that a run
// spans segment ends, some of them mid-batch — a reopen capped
// at every seq must render what one commit per record renders, which is
// what the primary rendered wherever it published that seq; so must a
// reopen past a torn tail.
func TestReplayRunsEqualPerRecordReplay(t *testing.T) {
	every := func(uint64) bool { return true }
	for seed := int64(1); seed <= 4; seed++ {
		segRecords := int64(0) // the default: one segment
		if seed%2 == 0 {
			segRecords = 3 + seed
		}
		t.Run(fmt.Sprintf("seed=%d/segment_records=%d", seed, segRecords), func(t *testing.T) {
			h := runReplayHistory(t, seed, 60, false, segRecords, every)
			if len(h.batches) == 0 {
				t.Fatal("no history held a batch")
			}
			checkReplayRuns(t, h, every)
		})
	}
}

// TestReplayRunSplitsStraddlingBatch: a group-commit batch that
// straddles replayRun records is split across two runs by replay. Every
// capped reopen around the cut, and the whole log, must still render
// what one commit per record renders.
func TestReplayRunSplitsStraddlingBatch(t *testing.T) {
	near := func(seq uint64) bool { return seq+6 >= replayRun && seq <= replayRun+6 }
	h := runReplayHistory(t, 7, 12, true, 0, func(seq uint64) bool { return seq+6 >= replayRun })
	straddled := false
	for _, b := range h.batches {
		straddled = straddled || b[0] < replayRun && b[1] > replayRun
	}
	if !straddled {
		t.Fatalf("no batch straddles seq %d: %v", replayRun, h.batches)
	}
	checkReplayRuns(t, h, func(seq uint64) bool { return near(seq) || seq == h.last })
}

// TestApplyReplicatedRun: ApplyReplicated takes a run of shipped
// records. It skips those at or below the catalog's seq, commits the
// rest as one WAL batch with one sync and publishes once, at the run's
// last seq, where the follower renders the primary's dump. A run with a
// record that does not decode publishes nothing of it and journals
// nothing.
func TestApplyReplicatedRun(t *testing.T) {
	h := runReplayHistory(t, 3, 60, false, 0, func(uint64) bool { return true })
	frames := journalFrames(t, h.dir)
	store, err := blob.OpenFileStore(h.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db := New(store)
	if err := db.OpenJournal(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer db.CloseJournal()
	half := len(frames) / 2
	for _, f := range frames[:half] {
		if _, err := db.ApplyReplicated(f); err != nil {
			t.Fatal(err)
		}
	}
	seq, syncs := db.Seq(), db.JournalStats().Syncs

	_, body, err := peekOp(frames[half+1])
	if err != nil {
		t.Fatal(err)
	}
	damaged := append(bytes.Clone(frames[half+1][:len(frames[half+1])-len(body)]), 0xff, 0xff, 0xff)
	bad := append(append(slices.Clone(frames[half-2:half+1]), damaged), frames[half+2:]...)
	if _, err := db.ApplyReplicated(bad...); err == nil {
		t.Fatal("a run holding an undecodable record applied")
	}
	if db.Seq() != seq || db.CurrentView().Epoch() != seq || db.JournalStats().Syncs != syncs {
		t.Fatalf("after the failed run: seq %d, epoch %d, %d syncs; want %d, %d, %d",
			db.Seq(), db.CurrentView().Epoch(), db.JournalStats().Syncs, seq, seq, syncs)
	}

	got, err := db.ApplyReplicated(frames[half-2:]...)
	if err != nil || got != h.last {
		t.Fatalf("ApplyReplicated of the rest = %d, %v; want %d", got, err, h.last)
	}
	if n := db.JournalStats().Syncs - syncs; n != 1 {
		t.Errorf("a run of %d new records cost %d journal syncs, want 1", len(frames)-half, n)
	}
	if e := db.CurrentView().Epoch(); e != h.last {
		t.Errorf("published epoch %d, want %d", e, h.last)
	}
	if dump := catalogDump(db); dump != h.live[h.last] {
		t.Errorf("after the run the follower renders\n%s\nthe primary rendered\n%s", dump, h.live[h.last])
	}
	if err := db.VerifyIndexes(); err != nil {
		t.Error(err)
	}
}
