package catalog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/wal"
)

// Tests of BLOB collection: a delete tombstones the interpretation, a
// checkpoint unlinks the file once it covers the tombstone, Open sweeps
// what a crash left, and a BLOB ID names one byte sequence forever.

// blobFile is the path of a BLOB's payload file in a database directory.
func blobFile(dir string, id blob.ID) string { return filepath.Join(dir, blob.FileName(id)) }

// strayBlobs lists the BLOB files in dir that db does not interpret.
func strayBlobs(t *testing.T, db *DB, dir string) []blob.ID {
	t.Helper()
	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ids, err := fs.IDs()
	if err != nil {
		t.Fatal(err)
	}
	var stray []blob.ID
	for _, id := range ids {
		if _, err := db.Interpretation(id); err != nil {
			stray = append(stray, id)
		}
	}
	return stray
}

// checkJournalBlobsExist fails the test when a journal record that
// replay or db's feed could still hand over — one above the manifest's
// CheckpointSeq — names a BLOB file dir does not hold.
func checkJournalBlobsExist(t *testing.T, db *DB, dir string) {
	t.Helper()
	var covered uint64
	if m := db.Manifest(); m != nil {
		covered = m.CheckpointSeq
	}
	for _, rec := range journalRecords(t, dir) {
		if rec.Kind != opInterp || rec.Seq <= covered {
			continue
		}
		if _, err := os.Stat(blobFile(dir, rec.Blob)); err != nil {
			t.Errorf("journal record %d names %v: %v", rec.Seq, rec.Blob, err)
		}
	}
}

// TestCrashCheckpointStagesWithCollectionPending crash-images a
// checkpoint, delta and full, at every durability stage while the
// delete of a BLOB's last reader waits for it. Every image reopens to
// the catalog that was checkpointed, with no journal record above the
// manifest naming a missing BLOB. Until the image's durable state
// covers the delete — the MANIFEST naming the new base or delta — the
// collection is still pending and the file stays; from
// then on, the image's Open sweeps the file if the checkpoint had not
// unlinked it yet; and once the reopened catalog checkpoints, no BLOB
// file is left that nothing interprets.
func TestCrashCheckpointStagesWithCollectionPending(t *testing.T) {
	for _, full := range []bool{false, true} {
		for _, stage := range []string{"rotated", "written", "manifest", "compacted"} {
			t.Run(fmt.Sprintf("full=%v/%s", full, stage), func(t *testing.T) {
				dir := t.TempDir()
				db := openDB(t, dir)
				savedClip(t, db, dir, "keep", 101)
				clip, err := db.Ingest("clip", genVideo(3, 102), IngestOptions{})
				if err != nil {
					t.Fatal(err)
				}
				obj, err := db.Get(clip)
				if err != nil {
					t.Fatal(err)
				}
				cut, err := db.SelectDuration(clip, "cut", 0, 2)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range []core.ID{cut, clip} {
					if err := db.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := os.Stat(blobFile(dir, obj.Blob)); err != nil {
					t.Fatalf("the delete unlinked its BLOB before a checkpoint: %v", err)
				}
				delSeq := db.Seq()

				crash := t.TempDir()
				captured := false
				db.checkpointHook = func(s string) {
					if s == stage && !captured {
						captured = true
						copyTree(t, dir, crash)
					}
				}
				if !full {
					checkpointDelta(t, db, dir)
				} else if err := db.Save(dir); err != nil {
					t.Fatal(err)
				}
				db.checkpointHook = nil
				if !captured {
					t.Fatalf("stage %s never fired", stage)
				}
				if _, err := os.Stat(blobFile(dir, obj.Blob)); err == nil {
					t.Error("the checkpoint left the collected BLOB's file")
				}

				db2 := openDB(t, crash)
				checkJournalBlobsExist(t, db2, crash)
				covered := stage == "manifest" || stage == "compacted"
				if m := db2.Manifest(); covered && (m == nil || m.CheckpointSeq < delSeq) {
					t.Errorf("manifest %+v: the feed would ship records below the checkpoint that collected", m)
				}
				floor := db.CurrentView().VersionFloor()
				if covered {
					floor = delSeq // the clip's history read the bytes that are gone
				}
				if got, want := catalogDumpFrom(db2, floor), catalogDumpFrom(db, floor); got != want {
					t.Errorf("image opens as\n%s\nwant\n%s", got, want)
				}
				if got := db2.CurrentView().VersionFloor(); got != floor {
					t.Errorf("version floor %d, want %d", got, floor)
				}
				if err := db2.CurrentView().VerifyVersions(); err != nil {
					t.Error(err)
				}
				wantSwept := 0
				if covered && stage != "compacted" {
					wantSwept = 1 // crashed between the covering write and the unlink
				}
				if got := db2.Recovery().BlobsSwept; got != wantSwept {
					t.Errorf("Open swept %d BLOBs, want %d", got, wantSwept)
				}
				if _, err := os.Stat(blobFile(crash, obj.Blob)); (err == nil) == covered {
					t.Errorf("collected BLOB's file after the reopen: %v", err)
				}
				if err := db2.Checkpoint(crash); err != nil {
					t.Fatal(err)
				}
				if stray := strayBlobs(t, db2, crash); len(stray) != 0 {
					t.Errorf("uninterpreted BLOB files after the reopen and a checkpoint: %v", stray)
				}
				if err := db2.CloseJournal(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// crashHistory ingests keep and clip into a fresh database at dir,
// deletes clip, checkpoints when asked, and crashes: the journal is
// closed with nothing saved after it. It returns clip's BLOB.
func crashHistory(t *testing.T, dir string, checkpoint bool) blob.ID {
	t.Helper()
	db := openDB(t, dir)
	if _, err := db.Ingest("keep", genVideo(3, 121), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	clip, err := db.Ingest("clip", genVideo(3, 122), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := db.Get(clip)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(clip); err != nil {
		t.Fatal(err)
	}
	if checkpoint {
		if err := db.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	return obj.Blob
}

// reopenIntact reopens dir and checks that keep and new expand to as
// many frames as they were ingested with.
func reopenIntact(t *testing.T, dir string) *DB {
	t.Helper()
	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, fs)
	if err != nil {
		t.Fatalf("reopen after crash → restart → ingest → crash: %v", err)
	}
	for name, frames := range map[string]int{"keep": 3, "new": 4} {
		obj, err := db.Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v, err := db.Expand(obj.ID)
		if err != nil || len(v.Video) != frames {
			t.Errorf("%s expands to %d frames (%v), want %d", name, len(v.Video), err, frames)
		}
	}
	return db
}

// TestCrashRestartIngestCrashReopens: ingest keep and clip, delete
// clip, crash, reopen, ingest new, crash. The directory must open with
// keep and new intact — new's BLOB must not take the ID whose first
// registration the journal still replays.
func TestCrashRestartIngestCrashReopens(t *testing.T) {
	dir := t.TempDir()
	clipBlob := crashHistory(t, dir, false)
	db := openDB(t, dir)
	id, err := db.Ingest("new", genVideo(4, 123), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if obj, _ := db.Get(id); obj.Blob == clipBlob {
		t.Errorf("new took the deleted clip's %v", clipBlob)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if err := reopenIntact(t, dir).CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashCheckpointedDeleteRetiresBlobID: the same history with a
// checkpoint after the delete, which unlinks clip's file. Opening the
// store finds no file at that ID any more; the snapshot's high-water
// mark must keep new off it.
func TestCrashCheckpointedDeleteRetiresBlobID(t *testing.T) {
	dir := t.TempDir()
	clipBlob := crashHistory(t, dir, true)
	if _, err := os.Stat(blobFile(dir, clipBlob)); err == nil {
		t.Fatal("the checkpoint did not unlink the collected BLOB; the test needs it gone")
	}
	db := openDB(t, dir)
	id, err := db.Ingest("new", genVideo(4, 123), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if obj, _ := db.Get(id); obj.Blob <= clipBlob {
		t.Errorf("new got %v, at or below the collected clip's %v", obj.Blob, clipBlob)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if err := reopenIntact(t, dir).CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRegisterOverCollectedBlobRefused: an interpretation chain
// that ends in a tombstone stays ended. Registering over the BLOB is
// refused with blob.ErrNotFound and journals nothing — live, and after
// a crash and reopen while the collection is still pending.
func TestRecoverRegisterOverCollectedBlobRefused(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	clip, err := db.Ingest("clip", genVideo(3, 131), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := db.Get(clip)
	if err != nil {
		t.Fatal(err)
	}
	it, err := db.Interpretation(obj.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(clip); err != nil {
		t.Fatal(err)
	}
	seq := db.Seq()
	if err := db.RegisterInterpretation(it); !errors.Is(err, blob.ErrNotFound) || db.Seq() != seq {
		t.Errorf("re-registration over a tombstone: %v at seq %d, want blob.ErrNotFound at %d", err, db.Seq(), seq)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	db2 := openDB(t, dir)
	if err := db2.RegisterInterpretation(it); !errors.Is(err, blob.ErrNotFound) || db2.Seq() != seq {
		t.Errorf("re-registration after a reopen: %v at seq %d, want blob.ErrNotFound at %d", err, db2.Seq(), seq)
	}
	if err := db2.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverFromBackupSweepsNothing: a corrupt snapshot sends Open to
// the backup, which predates a registration whose journal records the
// newer snapshot's checkpoint compacted away. That BLOB is then not
// interpreted, but it is what is left of the lost state: Open must not
// sweep it.
func TestRecoverFromBackupSweepsNothing(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	if _, err := db.Ingest("a", genVideo(3, 151), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil { // becomes the backup
		t.Fatal(err)
	}
	b, err := db.Ingest("b", genVideo(3, 152), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := db.Get(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	base := chainFile(t, dir, 0)
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(base, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := openDB(t, dir)
	if rec := db2.Recovery(); !rec.UsedBackup || rec.BlobsSwept != 0 {
		t.Errorf("recovery = %+v, want the backup used and nothing swept", rec)
	}
	if _, err := os.Stat(blobFile(dir, obj.Blob)); err != nil {
		t.Errorf("the BLOB of the registration the fallback lost: %v", err)
	}
	if err := db2.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverCorruptManifestRebuildsChain: a corrupt MANIFEST is set
// aside and the chain rebuilt from the file heads, so a registration
// that only a delta holds — its journal records compacted under that
// delta — is loaded all the same. The rebuild reached the newest base,
// so Open sweeps: the orphan planted beside the chain goes, and nothing
// else does.
func TestRecoverCorruptManifestRebuildsChain(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	savedClip(t, db, dir, "keep", 161)
	clip, err := db.Ingest("clip", genVideo(3, 162), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := db.Get(clip)
	if err != nil {
		t.Fatal(err)
	}
	checkpointDelta(t, db, dir)
	orphan, _, err := db.Store().Create()
	if err != nil {
		t.Fatal(err)
	}
	want := catalogDump(db)
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	path := wal.ManifestFile(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := openDB(t, dir)
	defer db2.CloseJournal()
	rec := db2.Recovery()
	if !rec.ManifestCorrupt || rec.FellBack() || rec.CheckpointsApplied != 1 || rec.BlobsSwept != 1 ||
		len(rec.Quarantined) != 1 || rec.Quarantined[0] != path+".corrupt" {
		t.Errorf("recovery = %+v, want the manifest set aside, the delta applied and the orphan swept", rec)
	}
	if got := catalogDump(db2); got != want {
		t.Errorf("rebuilt chain opens as\n%s\nwant\n%s", got, want)
	}
	if _, err := os.Stat(blobFile(dir, obj.Blob)); err != nil {
		t.Errorf("the BLOB of the registration only the delta holds: %v", err)
	}
	if _, err := os.Stat(blobFile(dir, orphan)); err == nil {
		t.Error("the orphan survived the rebuild's sweep")
	}
}

// TestRecoverReplayCapSweepsNothing: an Open capped below a BLOB's
// registration sees that BLOB as uninterpreted, and must not take it
// for an orphan; an uncapped Open sweeps only the true orphan, a BLOB
// an ingest created and never registered.
func TestRecoverReplayCapSweepsNothing(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	if _, err := db.Ingest("keep", genVideo(3, 141), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	capSeq := db.Seq()
	late, err := db.Ingest("late", genVideo(3, 142), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lateObj, err := db.Get(late)
	if err != nil {
		t.Fatal(err)
	}
	orphan, _, err := db.Store().Create()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Open(dir, fs, WithReplayCap(capSeq))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := capped.Lookup("late"); !errors.Is(err, ErrNotFound) {
		t.Errorf("late at the cap: %v", err)
	}
	if err := capped.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	for _, id := range []blob.ID{lateObj.Blob, orphan} {
		if _, err := os.Stat(blobFile(dir, id)); err != nil {
			t.Errorf("a capped Open deleted %v: %v", id, err)
		}
	}

	db2 := openDB(t, dir)
	if got := db2.Recovery().BlobsSwept; got != 1 {
		t.Errorf("Open swept %d BLOBs, want the orphan alone", got)
	}
	if _, err := os.Stat(blobFile(dir, orphan)); err == nil {
		t.Error("the orphan survived an uncapped Open")
	}
	if _, err := db2.Expand(late); err != nil {
		t.Errorf("late after the sweep: %v", err)
	}
	if err := db2.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}
