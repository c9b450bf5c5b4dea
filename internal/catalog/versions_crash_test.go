package catalog

import (
	"errors"
	"testing"

	"timedmedia/internal/blob"
)

// openRetentionDB opens dir with a file store and a version retention
// of one — the tightest bound, so the first re-edit of any chain
// truncates history and raises the version floor.
func openRetentionDB(t *testing.T, dir string) *DB {
	t.Helper()
	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, fs, WithVersionRetention(1))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// verifyRecoveredVersions asserts a reloaded catalog's transaction-time
// state is whole: chains verify, the floor is exactly wantFloor, the
// head is maxSeq, every as_of below the floor or past the head is
// refused with ErrVersionGone, and every as_of between them
// materializes a consistent snapshot.
func verifyRecoveredVersions(t *testing.T, db *DB, wantFloor, maxSeq uint64) {
	t.Helper()
	v := db.CurrentView()
	if err := v.VerifyVersions(); err != nil {
		t.Fatalf("recovered chains do not verify: %v", err)
	}
	if err := v.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
	if got := v.VersionFloor(); got != wantFloor {
		t.Fatalf("recovered floor = %d, want %d", got, wantFloor)
	}
	if v.Epoch() != maxSeq {
		t.Fatalf("recovered head = %d, want %d", v.Epoch(), maxSeq)
	}
	for seq := uint64(1); seq <= maxSeq+2; seq++ {
		av, err := v.AsOf(seq)
		if seq < wantFloor || seq > maxSeq {
			if !errors.Is(err, ErrVersionGone) {
				t.Fatalf("AsOf(%d) outside floor %d..head %d: %v, want ErrVersionGone", seq, wantFloor, maxSeq, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("AsOf(%d): %v", seq, err)
		}
		if n := len(av.SelectIndexed(IndexedQuery{}, nil, -1)); n != av.Len() {
			t.Fatalf("AsOf(%d): scan %d != Len %d", seq, n, av.Len())
		}
	}
}

// TestCrashRecoveryAtVersionRetentionBoundary crash-images an
// incremental checkpoint at every durability stage while the catalog
// has JUST truncated a version chain (retention 1: a delete leaves
// only the tombstone and raises the floor). Whatever the stage, the
// recovered image must hold the post-truncation chain — tombstone and
// floor together, never a floor without the truncation or a truncated
// chain without its floor.
func TestCrashRecoveryAtVersionRetentionBoundary(t *testing.T) {
	for _, stage := range []string{"rotated", "written", "manifest", "compacted"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			db := openRetentionDB(t, dir)
			clip, err := db.Ingest("clip", genVideo(6, 11), IngestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cutA, err := db.SelectDuration(clip, "cutA", 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.SelectDuration(clip, "cutB", 1, 3); err != nil {
				t.Fatal(err)
			}
			if err := db.Save(dir); err != nil {
				t.Fatal(err)
			}
			// The truncation: cutA's chain becomes [create, tombstone],
			// retention 1 prunes it to the tombstone alone and the
			// all-tombstone chain is dropped, raising the floor.
			if err := db.Delete(cutA); err != nil {
				t.Fatal(err)
			}
			wantFloor := db.CurrentView().VersionFloor()
			if wantFloor == 0 {
				t.Fatal("delete under retention 1 did not raise the floor")
			}
			maxSeq := db.Seq()

			crash := t.TempDir()
			captured := false
			db.checkpointHook = func(s string) {
				if s == stage && !captured {
					captured = true
					copyTree(t, dir, crash)
				}
			}
			if err := db.Checkpoint(dir); err != nil {
				t.Fatal(err)
			}
			db.checkpointHook = nil
			if !captured {
				t.Fatalf("stage %s never fired", stage)
			}

			db2 := openRetentionDB(t, crash)
			verifyRecoveredVersions(t, db2, wantFloor, maxSeq)
			if _, err := db2.Lookup("cutA"); !errors.Is(err, ErrNotFound) {
				t.Errorf("truncated-away object resurrected: %v", err)
			}
			if _, err := db2.Lookup("cutB"); err != nil {
				t.Errorf("surviving object lost: %v", err)
			}
		})
	}
}

// TestCrashRecoveryTruncationDuringCheckpoint commits the truncating
// delete in the middle of the checkpoint — after journal rotation,
// before the delta hits disk — then crash-images the later stages.
// The delete's journal record lands in the post-rotation segment AND
// its tombstone may be swept into the delta being written, so recovery
// replays the same chain entry twice; the equal-seq append must be
// idempotent. An image from before the delete recovers the
// pre-truncation chain (floor zero, cutA alive); images from after
// recover the post-truncation chain. Never a torn mixture.
func TestCrashRecoveryTruncationDuringCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openRetentionDB(t, dir)
	clip, err := db.Ingest("clip", genVideo(6, 13), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cutA, err := db.SelectDuration(clip, "cutA", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SelectDuration(clip, "cutB", 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SelectDuration(clip, "cutC", 0, 1); err != nil {
		t.Fatal(err)
	}
	preSeq := db.Seq()

	images := map[string]string{}
	db.checkpointHook = func(s string) {
		img := t.TempDir()
		copyTree(t, dir, img)
		images[s] = img
		if s == "rotated" {
			// Mid-checkpoint truncation: the image above predates it.
			if err := db.Delete(cutA); err != nil {
				t.Errorf("delete during checkpoint: %v", err)
			}
		}
	}
	if err := db.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	db.checkpointHook = nil
	wantFloor := db.CurrentView().VersionFloor()
	if wantFloor == 0 {
		t.Fatal("mid-checkpoint delete under retention 1 did not raise the floor")
	}
	maxSeq := db.Seq()

	for _, stage := range []string{"rotated", "written", "manifest", "compacted"} {
		img, ok := images[stage]
		if !ok {
			t.Fatalf("stage %s never fired", stage)
		}
		t.Run(stage, func(t *testing.T) {
			db2 := openRetentionDB(t, img)
			if stage == "rotated" {
				// Pre-truncation image: full history, cutA alive.
				verifyRecoveredVersions(t, db2, 0, preSeq)
				if _, err := db2.Lookup("cutA"); err != nil {
					t.Errorf("cutA should predate the truncation: %v", err)
				}
				return
			}
			verifyRecoveredVersions(t, db2, wantFloor, maxSeq)
			if _, err := db2.Lookup("cutA"); !errors.Is(err, ErrNotFound) {
				t.Errorf("truncated-away object resurrected: %v", err)
			}
			for _, name := range []string{"cutB", "cutC"} {
				if _, err := db2.Lookup(name); err != nil {
					t.Errorf("%s lost: %v", name, err)
				}
			}
		})
	}
}
