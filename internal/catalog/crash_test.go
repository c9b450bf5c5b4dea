package catalog

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/faultfs"
	"timedmedia/internal/wal"
)

// TestCrashJournalReplayRestoresCut is the headline scenario: a
// derivation created after the last snapshot (think POST /cut) must
// survive a kill -9. The process "crashes" by abandoning the DB
// without Save or CloseJournal — exactly what SIGKILL leaves behind,
// since every journal append is fsynced before the mutation returns.
func TestCrashJournalReplayRestoresCut(t *testing.T) {
	dir := t.TempDir()
	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	clip, err := db.Ingest("clip", genVideo(10, 7), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	cut, err := db.SelectDuration(clip, "webcut", 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Crash: no Save, no CloseJournal, handles simply abandoned.
	db.Abandon()

	fs2, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, fs2)
	if err != nil {
		t.Fatal(err)
	}
	rec := db2.Recovery()
	if rec.JournalRecords != 1 || rec.JournalTorn {
		t.Errorf("recovery = %+v", rec)
	}
	obj, err := db2.Lookup("webcut")
	if err != nil || obj.ID != cut {
		t.Fatalf("webcut after crash: %v %v", obj, err)
	}
	// Snapshot load + journal replay must leave the secondary indexes
	// identical to a from-scratch rebuild.
	if err := db2.VerifyIndexes(); err != nil {
		t.Errorf("index divergence after replay: %v", err)
	}
	v, err := db2.Expand(cut)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Video) != 6 {
		t.Errorf("frames = %d", len(v.Video))
	}
	// A snapshot after recovery absorbs the journal; a further reopen
	// replays nothing.
	if err := db2.Save(dir); err != nil {
		t.Fatal(err)
	}
	db2.Abandon()
	db3, err := Open(dir, fs2)
	if err != nil {
		t.Fatal(err)
	}
	if rec := db3.Recovery(); rec.JournalRecords != 0 || rec.JournalSkipped != 0 {
		t.Errorf("post-snapshot recovery = %+v", rec)
	}
}

// TestCrashIngestSurvivesWithoutSnapshot covers the journal-only
// database: mutations made before the first Save must replay into a
// fresh catalog.
func TestCrashIngestSurvivesWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	fs, _ := blob.OpenFileStore(dir)
	db, err := Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest("clip", genVideo(4, 1), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	// Crash before any Save: no checkpoint file exists at all.
	db.Abandon()

	fs2, _ := blob.OpenFileStore(dir)
	db2, err := Open(dir, fs2)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != 1 {
		t.Fatalf("objects = %d", db2.Len())
	}
	obj, err := db2.Lookup("clip")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Expand(obj.ID); err != nil {
		t.Errorf("expand after journal-only recovery: %v", err)
	}
}

// TestCrashTornTailTruncatedOnRecovery is the double-crash scenario: a
// crash mid-append leaves a torn journal tail, and recovery must
// truncate it before reattaching the journal (which opens O_APPEND) —
// otherwise mutations acknowledged after the recovery are written past
// the garbage and silently dropped by the next replay.
func TestCrashTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	clip, err := db.Ingest("clip", genVideo(8, 9), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SelectDuration(clip, "cut1", 0, 4); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: chop into the last record (the cut1 derivation)
	// of the active WAL segment.
	db.Abandon()
	seg := wal.SegmentFile(dir, 1)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	// First restart: tear reported, records before it intact.
	fs2, _ := blob.OpenFileStore(dir)
	db2, err := Open(dir, fs2)
	if err != nil {
		t.Fatal(err)
	}
	if rec := db2.Recovery(); !rec.JournalTorn || rec.JournalRecords != 2 {
		t.Fatalf("recovery = %+v", rec)
	}
	if _, err := db2.Lookup("cut1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn record replayed: %v", err)
	}
	// A mutation acknowledged after the recovery...
	obj, err := db2.Lookup("clip")
	if err != nil {
		t.Fatal(err)
	}
	cut2, err := db2.SelectDuration(obj.ID, "cut2", 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	// ...crash again, without any Save.
	db2.Abandon()

	// Second restart: cut2 must be present — it was fsynced before
	// SelectDuration returned, and the first recovery truncated the
	// tear so it was appended at a clean boundary.
	fs3, _ := blob.OpenFileStore(dir)
	db3, err := Open(dir, fs3)
	if err != nil {
		t.Fatal(err)
	}
	if rec := db3.Recovery(); rec.JournalTorn || rec.JournalRecords != 3 {
		t.Fatalf("second recovery = %+v", rec)
	}
	got, err := db3.Lookup("cut2")
	if err != nil || got.ID != cut2 {
		t.Fatalf("cut2 after second crash: %v %v (acknowledged record lost past old tear)", got, err)
	}
	if _, err := db3.Expand(cut2); err != nil {
		t.Error(err)
	}
}

// TestSaveConcurrentSerialized: Save only takes mu.RLock, so an
// autosave racing the shutdown snapshot used to collide on the same
// .tmp files. saveMu must serialize them; every call succeeds and
// the result stays loadable. Run with -race.
func TestSaveConcurrentSerialized(t *testing.T) {
	dir := t.TempDir()
	db := memDB()
	if _, err := db.Ingest("clip", genVideo(4, 2), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- db.Save(dir)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("concurrent save: %v", err)
		}
	}
	db2, err := Load(dir, db.Store())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Lookup("clip"); err != nil {
		t.Error(err)
	}
}

// corruptDBSetup saves two generations of a catalog (so a backup base
// exists beside the MANIFEST's) and returns the dir and the store.
func corruptDBSetup(t *testing.T) (string, *blob.FileStore) {
	t.Helper()
	dir := t.TempDir()
	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := New(fs)
	clip, err := db.Ingest("clip", genVideo(6, 2), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil { // generation 1 → becomes the backup
		t.Fatal(err)
	}
	if _, err := db.SelectDuration(clip, "cut", 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil { // generation 2 → the MANIFEST's base
		t.Fatal(err)
	}
	return dir, fs
}

func TestCrashCorruptSnapshotRecoversFromBackup(t *testing.T) {
	dir, fs := corruptDBSetup(t)
	path := chainFile(t, dir, 0)

	// Flip a payload byte: the CRC must catch it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-20] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err := Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseJournal()
	rec := db.Recovery()
	if !rec.UsedBackup || len(rec.Quarantined) == 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	// The backup predates the cut: only the clip survives. Never a
	// silent partial load of the corrupt file.
	if _, err := db.Lookup("clip"); err != nil {
		t.Errorf("clip lost: %v", err)
	}
	if _, err := db.Lookup("cut"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cut = %v, want ErrNotFound (backup predates it)", err)
	}
	// The bad file was quarantined, not deleted.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt snapshot still in place")
	}
	if _, err := os.Stat(rec.Quarantined[0]); err != nil {
		t.Errorf("quarantine file: %v", err)
	}
}

// TestCrashSnapshotVersionFlipRecoversFromBackup: one flipped bit turns
// the container's version 3 into version 2, whose chunk frames all
// still verify. That is damage, not another build's healthy file — the
// version 3 trailer checksum covers the header — so Open quarantines
// the snapshot and loads the backup.
func TestCrashSnapshotVersionFlipRecoversFromBackup(t *testing.T) {
	dir, fs := corruptDBSetup(t)
	path := chainFile(t, dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[11] != 3 {
		t.Fatalf("snapshot header %q, want container version 3", data[:12])
	}
	data[11] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err := Open(dir, fs)
	if err != nil {
		t.Fatalf("Open = %v, want a quarantine and the backup", err)
	}
	defer db.CloseJournal()
	if rec := db.Recovery(); !rec.UsedBackup || len(rec.Quarantined) == 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if _, err := db.Lookup("clip"); err != nil {
		t.Errorf("clip lost: %v", err)
	}
	if _, err := db.Lookup("cut"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cut = %v, want ErrNotFound (backup predates it)", err)
	}
}

func TestCrashTruncatedSnapshotRecoversFromBackup(t *testing.T) {
	dir, fs := corruptDBSetup(t)
	path := chainFile(t, dir, 0)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	db, err := Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseJournal()
	rec := db.Recovery()
	if !rec.UsedBackup || len(rec.Quarantined) == 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if _, err := db.Lookup("clip"); err != nil {
		t.Errorf("clip lost: %v", err)
	}
}

// TestCrashSnapshotLostBetweenRenames: the base the MANIFEST names is
// gone; the chain rebuilt from the file heads starts at the backup.
func TestCrashSnapshotLostBetweenRenames(t *testing.T) {
	dir, fs := corruptDBSetup(t)
	if err := os.Remove(chainFile(t, dir, 0)); err != nil {
		t.Fatal(err)
	}
	db, err := Load(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	if rec := db.Recovery(); !rec.UsedBackup {
		t.Errorf("recovery = %+v", rec)
	}
	if _, err := db.Lookup("clip"); err != nil {
		t.Errorf("clip lost: %v", err)
	}
}

// TestCrashStaleJournalSkipped covers a kill between the snapshot
// rename and the journal truncate: the journal still holds records the
// snapshot already captured, and sequence numbers make replay skip
// them instead of double-applying.
func TestCrashStaleJournalSkipped(t *testing.T) {
	dir := t.TempDir()
	fs, _ := blob.OpenFileStore(dir)
	db, err := Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	clip, err := db.Ingest("clip", genVideo(5, 3), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SelectDuration(clip, "cut", 0, 2); err != nil {
		t.Fatal(err)
	}
	// Preserve the first WAL segment as it stands (3 records: interp,
	// nonderived, derived), snapshot (which rotates and compacts it),
	// then put the stale segment back — the state a crash between a
	// checkpoint's manifest write and its compaction leaves.
	stale, err := os.ReadFile(wal.SegmentFile(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal.SegmentFile(dir, 1), stale, 0o644); err != nil {
		t.Fatal(err)
	}

	fs2, _ := blob.OpenFileStore(dir)
	db2, err := Open(dir, fs2)
	if err != nil {
		t.Fatal(err)
	}
	rec := db2.Recovery()
	if rec.JournalRecords != 0 || rec.JournalSkipped != 3 {
		t.Errorf("recovery = %+v", rec)
	}
	if db2.Len() != 2 {
		t.Errorf("objects = %d (double-applied?)", db2.Len())
	}
}

// TestRecoverReportsEveryQuarantine: a flipped byte in the delta and
// one in the MANIFEST set both files aside, and Recovery names both.
func TestRecoverReportsEveryQuarantine(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	clip := savedClip(t, db, dir, "clip", 171)
	if _, err := db.SelectDuration(clip, "late", 0, 2); err != nil {
		t.Fatal(err)
	}
	checkpointDelta(t, db, dir)
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	delta, manifest := chainFile(t, dir, 1), wal.ManifestFile(dir)
	for _, path := range []string{delta, manifest} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x08
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db2 := openDB(t, dir)
	defer db2.CloseJournal()
	rec := db2.Recovery()
	for _, path := range []string{delta, manifest} {
		if !slices.Contains(rec.Quarantined, path+".corrupt") {
			t.Errorf("Recovery().Quarantined = %q, want %s.corrupt among them", rec.Quarantined, path)
		}
		if _, err := os.Stat(path + ".corrupt"); err != nil {
			t.Error(err)
		}
	}
	if !rec.ManifestCorrupt || !rec.FellBack() || !rec.Eventful() {
		t.Errorf("recovery = %+v, want the MANIFEST corrupt and a fallback past the delta", rec)
	}
}

// TestRecoverNoCleanBaseFails: with the one base damaged and no backup
// beside it, Open sets the base aside and fails, naming the damage.
func TestRecoverNoCleanBaseFails(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	savedClip(t, db, dir, "clip", 172)
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	base := chainFile(t, dir, 0)
	if err := os.WriteFile(base, []byte("not a container"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, db.Store()); !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), "no other base") {
		t.Errorf("Open = %v, want ErrCorruptSnapshot with no other base", err)
	}
	if _, err := os.Stat(base + ".corrupt"); err != nil {
		t.Error(err)
	}
}

// TestExistsAndOpenChain: Exists tells a directory with catalog state
// from one without, and OpenChain opens every file of the chain the
// MANIFEST names, base first, with the seq the last delta covers —
// writing nothing. A catalog with no chain in the directory yet
// checkpoints a base first.
func TestExistsAndOpenChain(t *testing.T) {
	dir := t.TempDir()
	if Exists(dir) {
		t.Error("an empty directory exists as a catalog")
	}
	db := openDB(t, dir)
	if _, err := db.Ingest("clip", genVideo(4, 173), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	files, seq, err := db.OpenChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	closeFiles(files)
	if len(files) != 1 || seq != db.Seq() || files[0].Name() != chainFile(t, dir, 0) {
		t.Fatalf("OpenChain without a chain = %d files at seq %d, want the new base at %d", len(files), seq, db.Seq())
	}
	clip := savedClip(t, db, dir, "clip2", 173)
	if _, err := db.SelectDuration(clip, "late", 0, 2); err != nil {
		t.Fatal(err)
	}
	checkpointDelta(t, db, dir)
	before := chainFilesOnDisk(t, dir)
	files, seq, err = db.OpenChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFiles(files)
	if len(files) != 2 || seq != db.Seq() {
		t.Fatalf("OpenChain = %d files at seq %d, want a base and a delta at %d", len(files), seq, db.Seq())
	}
	for i, f := range files {
		if f.Name() != chainFile(t, dir, i) {
			t.Errorf("file %d = %s, want %s", i, f.Name(), chainFile(t, dir, i))
		}
	}
	if after := chainFilesOnDisk(t, dir); !slices.Equal(before, after) {
		t.Errorf("OpenChain of a chain wrote files: %v, then %v", before, after)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Error("a checkpointed directory does not exist as a catalog")
	}
	db2 := openDB(t, dir)
	defer db2.CloseJournal()
	if rec := db2.Recovery(); rec.Eventful() {
		t.Errorf("a clean reopen is eventful: %+v", rec)
	}
}

// closeFiles closes the files OpenChain opened.
func closeFiles(files []*os.File) {
	for _, f := range files {
		f.Close()
	}
}

// TestRecoverLoadMissingBlob: a snapshot referencing a BLOB the store
// no longer has must fail loudly, naming the blob — and must NOT
// quarantine the (perfectly good) snapshot.
func TestRecoverLoadMissingBlob(t *testing.T) {
	dir := t.TempDir()
	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := New(fs)
	if _, err := db.Ingest("clip", genVideo(3, 4), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	if err := os.Remove(filepath.Join(dir, "1.blob")); err != nil {
		t.Fatal(err)
	}

	fs2, _ := blob.OpenFileStore(dir)
	_, err = Load(dir, fs2)
	if err == nil {
		t.Fatal("load with missing blob must fail")
	}
	if !errors.Is(err, blob.ErrNotFound) || !strings.Contains(err.Error(), "missing") {
		t.Errorf("err = %v", err)
	}
	// The base itself is fine; it must still be in place.
	if _, serr := os.Stat(CheckpointFile(dir, 1)); serr != nil {
		t.Errorf("snapshot quarantined on store error: %v", serr)
	}
}

// TestFaultTransientCreateRetried: a transient store failure during
// Ingest is absorbed by the retry policy.
func TestFaultTransientCreateRetried(t *testing.T) {
	inj := faultfs.NewInjector(
		faultfs.Rule{Op: "create", Nth: 1, Times: 1, Err: faultfs.Transient()})
	db := New(faultfs.Wrap(blob.NewMemStore(), inj))
	id, err := db.Ingest("clip", genVideo(3, 5), IngestOptions{})
	if err != nil {
		t.Fatalf("ingest through transient faults: %v", err)
	}
	if inj.Fired() != 2 {
		t.Errorf("fired = %d, want 2", inj.Fired())
	}
	if _, err := db.Expand(id); err != nil {
		t.Error(err)
	}
}

// TestFaultPermanentCreateFails: non-transient store errors are not
// retried away.
func TestFaultPermanentCreateFails(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.Rule{Op: "create", Nth: 1})
	db := New(faultfs.Wrap(blob.NewMemStore(), inj))
	if _, err := db.Ingest("clip", genVideo(3, 5), IngestOptions{}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if inj.Fired() != 1 {
		t.Errorf("fired = %d (retried a permanent error?)", inj.Fired())
	}
}

// TestFaultJournalAppendRollsBack: when the journal append fails the
// in-memory mutation is rolled back — no half-durable objects.
func TestFaultJournalAppendRollsBack(t *testing.T) {
	dir := t.TempDir()
	db := memDB()
	clip, err := db.Ingest("clip", genVideo(6, 6), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	attachFaultJournal(t, db, dir, faultfs.NewInjector(faultfs.Rule{Op: "journal.append", Nth: 1}))
	// Journal-less mutations consume seqs too (they stamp version
	// chains), so the skip-the-failed-seq check is relative to here.
	base := db.Seq()

	before := db.Len()
	_, err = db.SelectDuration(clip, "cut", 0, 3)
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("err = %v, want ErrJournal", err)
	}
	if db.Len() != before {
		t.Errorf("len = %d, want %d (mutation not rolled back)", db.Len(), before)
	}
	if _, err := db.Lookup("cut"); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup rolled-back object: %v", err)
	}
	// The rollback must also have unlinked the object from every
	// secondary index — a leak here would let the planner surface an
	// unacknowledged mutation.
	if err := db.VerifyIndexes(); err != nil {
		t.Errorf("index leak after rollback: %v", err)
	}

	// The fault was one-shot; the same mutation now succeeds and the
	// name/ID space shows no leak from the rollback.
	cut, err := db.SelectDuration(clip, "cut", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Expand(cut); err != nil {
		t.Error(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// Only the successful mutation reached the journal — and it carries
	// a fresh sequence number. The failed append's seq must not be
	// reused: a record that failed only at fsync can still be on disk
	// intact, and a duplicate seq would make replay skip the
	// acknowledged record in favor of the rolled-back one.
	recs := journalRecords(t, dir)
	if len(recs) != 1 {
		t.Fatalf("journal holds %d records, want 1", len(recs))
	}
	if recs[0].Seq != base+2 {
		t.Errorf("seq = %d, want %d (failed append's sequence number reused)", recs[0].Seq, base+2)
	}
}

// TestFaultDeleteNotJournaledWhenRefused: a delete that fails
// validation must leave no journal record (replaying it would fail).
func TestFaultDeleteNotJournaledWhenRefused(t *testing.T) {
	dir := t.TempDir()
	db := memDB()
	clip, err := db.Ingest("clip", genVideo(4, 8), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SelectDuration(clip, "cut", 0, 2); err != nil {
		t.Fatal(err)
	}
	attachFaultJournal(t, db, dir, faultfs.NewInjector())

	if err := db.Delete(clip); !errors.Is(err, ErrInUse) {
		t.Fatalf("delete referenced: %v", err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if recs := journalRecords(t, dir); len(recs) != 0 {
		t.Errorf("refused delete reached the journal: %d records", len(recs))
	}
}

// attachFaultJournal attaches dir's segmented journal to db behind a
// fault injector, without replaying it.
func attachFaultJournal(t *testing.T, db *DB, dir string, inj *faultfs.Injector) {
	t.Helper()
	seg, err := wal.OpenSegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.AttachJournal(faultfs.WrapJournal(seg, inj), dir)
}

// journalRecords decodes every record in dir's WAL segments, failing
// the test on a torn segment.
func journalRecords(t *testing.T, dir string) []*walOp {
	t.Helper()
	var recs []*walOp
	results, err := wal.ReplaySegments(dir, func(d []byte) error {
		rec, err := decodeOp(d)
		recs = append(recs, rec)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Torn {
			t.Fatalf("segment %d is torn at %d", r.Index, r.TornOffset)
		}
	}
	return recs
}
