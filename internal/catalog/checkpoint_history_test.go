package catalog

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/timebase"
	"timedmedia/internal/wal"
)

// TestCheckpointRandomHistories runs seeded random histories — clips
// ingested, cut and composed, syncs, deletes down to a BLOB's last
// reader — under version retention 1, 2 and the default, with
// Checkpoint and Save at random points. After every checkpoint the
// directory holds at most two base files, and a reopened copy of it
// equals the live catalog, with its MANIFEST and with the MANIFEST
// removed (the chain rebuilt from the file heads); so does a crash
// image taken between checkpoints and reopened twice. At
// retention 1 a delete drops its chain outright; the vacuity guard
// insists some delta had to carry such a drop in its head.
func TestCheckpointRandomHistories(t *testing.T) {
	for _, retention := range []int{1, 2, DefaultVersionRetention} {
		t.Run(fmt.Sprintf("retention=%d", retention), func(t *testing.T) {
			drops, deltas := 0, 0
			for seed := int64(1); seed <= 4; seed++ {
				d, n := randomCheckpointHistory(t, seed, retention)
				drops += d
				deltas += n
			}
			t.Logf("%d deltas carried %d dropped chains", deltas, drops)
			if deltas == 0 {
				t.Error("no checkpoint was a delta")
			}
			if retention == 1 && drops == 0 {
				t.Error("no delta carried a chain retention dropped")
			}
		})
	}
}

// randomCheckpointHistory runs one seeded history and returns how many
// dropped chains its deltas carried and how many deltas it wrote.
func randomCheckpointHistory(t *testing.T, seed int64, retention int) (drops, deltas int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db, err := Open(dir, store, WithVersionRetention(retention))
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseJournal()

	n := 0
	name := func(prefix string) string { n++; return fmt.Sprintf("%s%03d", prefix, n) }
	pick := func(pred func(*core.Object) bool) *core.Object {
		objs := db.Select(pred)
		if len(objs) == 0 {
			return nil
		}
		return objs[rng.Intn(len(objs))]
	}
	// fresh holds the BLOBs registered since the last checkpoint: the
	// only files a reopen may keep that nothing interprets, because its
	// replay registers them again.
	fresh := map[blob.ID]bool{}
	ingest := func() {
		id, err := db.Ingest(name("clip"), genVideo(2, seed*1000+int64(n)), IngestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		obj, err := db.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		fresh[obj.Blob] = true
	}
	for i := 0; i < 6; i++ {
		ingest()
	}
	for step := 0; step < 90; step++ {
		switch r := rng.Intn(20); {
		case r < 3:
			ingest()
		case r < 4:
			// A clip deleted before any checkpoint saw it: at retention 1
			// neither view holds its interpretation chain.
			ingest()
			last, err := db.Lookup(fmt.Sprintf("clip%03d", n))
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Delete(last.ID); err != nil {
				t.Fatal(err)
			}
		case r < 8:
			if src := pick(func(o *core.Object) bool { return o.Class == core.ClassNonDerived }); src != nil {
				if _, err := db.SelectDuration(src.ID, name("cut"), 0, 1); err != nil {
					t.Fatal(err)
				}
			}
		case r < 9:
			a, b := pick(func(*core.Object) bool { return true }), pick(func(*core.Object) bool { return true })
			if a != nil && b != nil {
				comps := []core.ComponentRef{{Object: a.ID}, {Object: b.ID, Start: 40}}
				if _, err := db.AddMultimedia(name("mix"), timebase.Millis, comps, nil); err != nil {
					t.Fatal(err)
				}
			}
		case r < 10:
			if mm := pick(func(o *core.Object) bool { return o.Class == core.ClassMultimedia }); mm != nil {
				if err := db.AddSync(mm.ID, 0, 1, int64(rng.Intn(50))); err != nil {
					t.Fatal(err)
				}
			}
		case r < 14:
			if o := pick(func(*core.Object) bool { return true }); o != nil {
				if err := db.Delete(o.ID); err != nil && !errors.Is(err, ErrInUse) {
					t.Fatal(err)
				}
			}
		case r < 16:
			// A crash image, reopened twice: the first Open's sweep must
			// leave every BLOB the second one's replay still needs.
			reopenEquals(t, db, dir, retention, 2, fresh, false)
		case r < 19:
			before := chainLen(db)
			dropped := droppedSinceCheckpoint(db)
			if err := db.Checkpoint(dir); err != nil {
				t.Fatal(err)
			}
			if chainLen(db) > before {
				deltas++
				drops += dropped
			}
			clear(fresh)
			checkCheckpointed(t, db, dir, retention, fresh)
		default:
			if err := db.Save(dir); err != nil {
				t.Fatal(err)
			}
			clear(fresh)
			checkCheckpointed(t, db, dir, retention, fresh)
		}
	}
	return drops, deltas
}

// chainLen is the length of db's checkpoint chain (0 without a
// manifest).
func chainLen(db *DB) int {
	if m := db.Manifest(); m != nil {
		return len(m.Checkpoints)
	}
	return 0
}

// droppedSinceCheckpoint counts the chains the last checkpoint's view
// holds and the current one does not: retention dropped them, and only
// a delta's head can say so.
func droppedSinceCheckpoint(db *DB) int {
	base, cur := db.ckptView, db.CurrentView()
	if base == nil {
		return 0
	}
	k := 0
	diff(base.vers, cur.vers, func(_ core.ID, _, c *verChain) {
		if c == nil {
			k++
		}
	})
	diff(base.interpVers, cur.interpVers, func(_ blob.ID, _, c *interpVerChain) {
		if c == nil {
			k++
		}
	})
	return k
}

// checkCheckpointed checks what a checkpoint left in dir: at most two
// base files — the chain's and the backup — and a copy that reopens to
// db with the MANIFEST and without it.
func checkCheckpointed(t *testing.T, db *DB, dir string, retention int, fresh map[blob.ID]bool) {
	t.Helper()
	nums, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bases []uint64
	for _, n := range nums {
		s, err := openStream(CheckpointFile(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		if s.head.FromSeq == 0 {
			bases = append(bases, n)
		}
		s.Close()
	}
	if len(bases) > 2 {
		t.Fatalf("at seq %d the directory holds bases %v, want at most two", db.Seq(), bases)
	}
	reopenEquals(t, db, dir, retention, 1, fresh, false)
	reopenEquals(t, db, dir, retention, 1, fresh, true)
}

// reopenEquals opens a copy of dir — without its MANIFEST when
// noManifest is set — times times in a row, closing the journal in
// between, and checks the last reopen against db: the same
// live objects and syncs and the same as_of counts from the higher of
// the two version floors (a reload raises its floor past history whose
// BLOB a checkpoint unlinked), with indexes and chains intact. No BLOB
// file may be left that the next reopen would not open again: one the
// reopened catalog, or the last checkpoint, interprets, or one
// registered since that checkpoint (fresh).
func reopenEquals(t *testing.T, db *DB, dir string, retention, times int, fresh map[blob.ID]bool, noManifest bool) {
	t.Helper()
	img := t.TempDir()
	copyTree(t, dir, img)
	if noManifest {
		if err := os.Remove(wal.ManifestFile(img)); err != nil {
			t.Fatal(err)
		}
	}
	base := db.ckptView
	var got *DB
	for i := 0; i < times; i++ {
		store, err := blob.OpenFileStore(img)
		if err != nil {
			t.Fatal(err)
		}
		if got, err = Open(img, store, WithVersionRetention(retention)); err != nil {
			t.Fatalf("reopen %d at seq %d: %v", i+1, db.Seq(), err)
		}
		if rec := got.Recovery(); rec.FellBack() || len(rec.Quarantined) != 0 {
			t.Fatalf("reopen %d at seq %d (MANIFEST removed: %v) fell back: %+v", i+1, db.Seq(), noManifest, rec)
		}
		ids, err := store.IDs()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if interpAt(got.CurrentView().interpVers, id, seqNow) == nil && !fresh[id] && !(base != nil && interpAt(base.interpVers, id, seqNow) != nil) {
				t.Fatalf("reopen %d at seq %d left %v, which nothing interprets", i+1, db.Seq(), id)
			}
		}
		if err := got.CloseJournal(); err != nil {
			t.Fatal(err)
		}
		store.Close()
	}
	floor := max(db.CurrentView().VersionFloor(), got.CurrentView().VersionFloor())
	if g, w := catalogDumpFrom(got, floor), catalogDumpFrom(db, floor); g != w {
		t.Fatalf("reopen at seq %d (MANIFEST removed: %v):\n%s\nwant:\n%s", db.Seq(), noManifest, g, w)
	}
	if err := got.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
	if err := got.CurrentView().VerifyVersions(); err != nil {
		t.Fatal(err)
	}
}
