package catalog

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/faultfs"
	"timedmedia/internal/telemetry"
	"timedmedia/internal/wal"
)

func openDB(t *testing.T, dir string) *DB {
	t.Helper()
	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// crash abandons db the way a killed process leaves it: journal
// handles open, nothing synced or closed. The directory lock is
// released, as the kernel releases a dead process's flock.
func crash(db *DB) { db.dirLock.Unlock() }

// copyTree snapshots a database directory byte-for-byte — the crash
// image a kill -9 at that instant would leave (checkpoint hooks fire
// between file operations, never mid-write).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(src, p)
		if rerr != nil {
			return rerr
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, rerr := os.ReadFile(p)
		if rerr != nil {
			return rerr
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func chainFilesOnDisk(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if _, ok := parseCheckpointIndex(e.Name()); ok {
			out = append(out, e.Name())
		}
	}
	return out
}

// chainFile is the path of file i of the chain dir's MANIFEST names:
// file 0 is the base.
func chainFile(tb testing.TB, dir string, i int) string {
	tb.Helper()
	m, err := wal.LoadManifest(dir)
	if err != nil || m == nil || i >= len(m.Checkpoints) {
		tb.Fatalf("MANIFEST %+v (%v) names no file %d", m, err, i)
	}
	return CheckpointFile(dir, m.Checkpoints[i])
}

// TestCheckpointIncrementalBasics: after a full Save, Checkpoint
// writes deltas (what changed only) into a growing manifest chain; a
// quiescent catalog checkpoints to a no-op; and a reload applies the
// chain instead of replaying the journal.
func TestCheckpointIncrementalBasics(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	clip, err := db.Ingest("clip", genVideo(8, 1), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := db.SelectDuration(clip, fmt.Sprintf("base%d", i), 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	m := db.Manifest()
	if m == nil || len(m.Checkpoints) != 1 {
		t.Fatalf("manifest after full save = %+v", m)
	}
	baseSeq := m.CheckpointSeq

	cut1, err := db.SelectDuration(clip, "cut1", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	m = db.Manifest()
	if len(m.Checkpoints) != 2 || m.CheckpointSeq <= baseSeq {
		t.Fatalf("manifest after incremental = %+v (base seq %d)", m, baseSeq)
	}
	if _, err := os.Stat(CheckpointFile(dir, m.Checkpoints[1])); err != nil {
		t.Fatal(err)
	}

	// Quiescent catalog: checkpoint is a no-op, the manifest does not
	// churn.
	if err := db.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if m2 := db.Manifest(); m2 != m {
		t.Fatalf("quiescent checkpoint rewrote the manifest: %+v", m2)
	}

	if _, err := db.SelectDuration(clip, "cut2", 2, 5); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(cut1); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if m = db.Manifest(); len(m.Checkpoints) != 3 {
		t.Fatalf("manifest chain = %v, want the base and 2 deltas", m.Checkpoints)
	}
	want := db.Len()
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	db2 := openDB(t, dir)
	rec := db2.Recovery()
	if rec.CheckpointsApplied != 2 || rec.CheckpointChainBroken {
		t.Errorf("recovery = %+v", rec)
	}
	if rec.JournalRecords != 0 {
		t.Errorf("replayed %d journal records past a current checkpoint", rec.JournalRecords)
	}
	if _, err := db2.Lookup("cut2"); err != nil {
		t.Error(err)
	}
	if _, err := db2.Lookup("cut1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted cut1 resurrected: %v", err)
	}
	if db2.Len() != want {
		t.Errorf("reloaded %d objects, want %d", db2.Len(), want)
	}
	if err := db2.VerifyIndexes(); err != nil {
		t.Error(err)
	}
}

// TestCheckpointChainPromotesToFull: once the chain reaches its bound
// the next checkpoint collapses it into a new base and retires the
// delta files, keeping the previous base as the backup.
func TestCheckpointChainPromotesToFull(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	clip, err := db.Ingest("clip", genVideo(6, 2), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Live objects beside the deltas, so the collapsed base holds more
	// than the chain's last writes.
	for i := 0; i < 30; i++ {
		if _, err := db.SelectDuration(clip, fmt.Sprintf("base%02d", i), 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultMaxCheckpointChain; i++ {
		if _, err := db.SelectDuration(clip, fmt.Sprintf("inc%02d", i), 1, 3); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		if got := len(db.Manifest().Checkpoints); got != i+2 {
			t.Fatalf("chain length %d after %d checkpoints", got, i+1)
		}
	}
	if _, err := db.SelectDuration(clip, "overflow", 2, 4); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if m := db.Manifest(); len(m.Checkpoints) != 1 {
		t.Fatalf("chain not collapsed by full promotion: %v", m.Checkpoints)
	}
	if files := chainFilesOnDisk(t, dir); len(files) != 2 {
		t.Fatalf("files beside the new base and the backup survive full promotion: %v", files)
	}
	want := db.Len()
	db.CloseJournal()
	db2 := openDB(t, dir)
	if db2.Len() != want {
		t.Fatalf("reloaded %d objects, want %d", db2.Len(), want)
	}
	if err := db2.VerifyIndexes(); err != nil {
		t.Error(err)
	}
}

// TestCheckpointWriterProgressDuringInFlight is the acceptance check
// for the copy-on-write capture: while a checkpoint is between its
// lock-free stages (capture released, encode/fsync pending or done),
// writers must be able to commit new mutations instead of blocking on
// a lock held across disk I/O.
func TestCheckpointWriterProgressDuringInFlight(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	clip, err := db.Ingest("clip", genVideo(8, 4), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := db.SelectDuration(clip, fmt.Sprintf("base%d", i), 0, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SelectDuration(clip, "pending", 0, 2); err != nil {
		t.Fatal(err)
	}

	stages := map[string]error{}
	db.checkpointHook = func(stage string) {
		if stage != "rotated" && stage != "written" {
			return
		}
		done := make(chan error, 1)
		go func() {
			_, err := db.SelectDuration(clip, "during-"+stage, 1, 4)
			done <- err
		}()
		select {
		case err := <-done:
			stages[stage] = err
		case <-time.After(5 * time.Second):
			stages[stage] = errors.New("writer blocked while checkpoint in flight")
		}
	}
	if err := db.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	db.checkpointHook = nil
	if len(stages) != 2 {
		t.Fatalf("hook stages observed: %v", stages)
	}
	for stage, err := range stages {
		if err != nil {
			t.Fatalf("stage %s: %v", stage, err)
		}
	}

	// Mutations committed mid-checkpoint are durable: they landed in
	// the post-rotation segment and replay on reload.
	db.CloseJournal()
	db2 := openDB(t, dir)
	for _, name := range []string{"pending", "during-rotated", "during-written"} {
		if _, err := db2.Lookup(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := db2.VerifyIndexes(); err != nil {
		t.Error(err)
	}
}

// TestCheckpointWriterCompletesMidCapture: a checkpoint holds no lock
// while it diffs and captures its pinned view, so a writer commits in
// the middle of it. The checkpoint stops short of that commit, and the
// commit is durable in the segment the checkpoint rotated to: a crash
// image taken once the MANIFEST is written reopens to the live catalog.
func TestCheckpointWriterCompletesMidCapture(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	clip := baseCatalog(t, db, dir, 6, 187)
	if _, err := db.SelectDuration(clip, "pending", 0, 2); err != nil {
		t.Fatal(err)
	}

	var midSeq uint64
	crash := t.TempDir()
	db.checkpointHook = func(stage string) {
		switch stage {
		case "capture":
			done := make(chan error, 1)
			go func() {
				_, err := db.SelectDuration(clip, "mid", 1, 3)
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("mid-capture commit: %v", err)
				}
				midSeq = db.Seq()
			case <-time.After(5 * time.Second):
				t.Fatal("writer blocked while the checkpoint captured")
			}
		case "manifest":
			copyTree(t, dir, crash)
		}
	}
	if err := db.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	db.checkpointHook = nil
	if midSeq == 0 {
		t.Fatal(`the "capture" stage never fired`)
	}
	if m := db.Manifest(); m.CheckpointSeq >= midSeq {
		t.Errorf("checkpoint at seq %d covers the commit at seq %d made while it captured", m.CheckpointSeq, midSeq)
	}

	want := catalogDump(db)
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	db2 := openDB(t, crash)
	defer db2.CloseJournal()
	if got := catalogDump(db2); got != want {
		t.Errorf("crash image at manifest reopens to\n%s\nwant\n%s", got, want)
	}
	if rec := db2.Recovery(); rec.JournalRecords != 1 {
		t.Errorf("reopen replayed %d records, want the mid-capture commit alone", rec.JournalRecords)
	}
}

// TestCrashDuringCheckpointStages kills the process (by capturing the
// directory image) at each durability boundary inside an incremental
// checkpoint and inside a full Save. Whatever the stage, a reload of
// the image must recover every acknowledged mutation and pass index
// verification.
func TestCrashDuringCheckpointStages(t *testing.T) {
	for _, full := range []bool{false, true} {
		for _, stage := range []string{"rotated", "written", "manifest", "compacted"} {
			name := stage
			if full {
				name = "save-" + stage
			}
			crashDuringCheckpointStage(t, name, stage, full)
		}
	}
}

func crashDuringCheckpointStage(t *testing.T, name, stage string, full bool) {
	t.Run(name, func(t *testing.T) {
		dir := t.TempDir()
		db := openDB(t, dir)
		clip, err := db.Ingest("clip", genVideo(6, 3), IngestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if _, err := db.SelectDuration(clip, fmt.Sprintf("base%d", i), 0, 2); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Save(dir); err != nil {
			t.Fatal(err)
		}
		acked1, err := db.SelectDuration(clip, "acked1", 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.SelectDuration(clip, "acked2", 1, 3); err != nil {
			t.Fatal(err)
		}
		if err := db.Delete(acked1); err != nil {
			t.Fatal(err)
		}

		crash := t.TempDir()
		captured := false
		db.checkpointHook = func(s string) {
			if s == stage && !captured {
				captured = true
				copyTree(t, dir, crash)
			}
		}
		checkpoint := db.Checkpoint
		if full {
			checkpoint = db.Save
		}
		if err := checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		if !captured {
			t.Fatalf("stage %s never fired", stage)
		}

		db2 := openDB(t, crash)
		if _, err := db2.Lookup("acked2"); err != nil {
			t.Errorf("acknowledged mutation lost: %v", err)
		}
		if _, err := db2.Lookup("acked1"); !errors.Is(err, ErrNotFound) {
			t.Errorf("deleted object resurrected: %v", err)
		}
		if db2.Len() != db.Len() {
			t.Errorf("recovered %d objects, want %d", db2.Len(), db.Len())
		}
		if err := db2.VerifyIndexes(); err != nil {
			t.Error(err)
		}
	})
}

// TestCheckpointRotateFaultKeepsDirty: a rotation failure aborts the
// checkpoint before anything durable changes; the dirty slice stays
// put and the next checkpoint covers it.
func TestCheckpointRotateFaultKeepsDirty(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := New(store)
	inj := faultfs.NewInjector()
	attachFaultJournal(t, db, dir, inj)

	clip, err := db.Ingest("clip", genVideo(6, 7), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := db.SelectDuration(clip, fmt.Sprintf("base%d", i), 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(dir); err != nil { // rotation #1
		t.Fatal(err)
	}
	if _, err := db.SelectDuration(clip, "cut", 1, 3); err != nil {
		t.Fatal(err)
	}
	inj.Add(faultfs.Rule{Op: "journal.rotate", Nth: 2})
	if err := db.Checkpoint(dir); err == nil {
		t.Fatal("rotate fault not surfaced")
	}
	if m := db.Manifest(); len(m.Checkpoints) != 1 {
		t.Fatalf("failed checkpoint advanced the manifest: %+v", m)
	}
	if err := db.Checkpoint(dir); err != nil { // rotation #3, clean
		t.Fatal(err)
	}
	if m := db.Manifest(); len(m.Checkpoints) != 2 {
		t.Fatalf("retry did not checkpoint the dirty slice: %+v", m)
	}
	db.CloseJournal()
	db2 := openDB(t, dir)
	if _, err := db2.Lookup("cut"); err != nil {
		t.Error(err)
	}
	if err := db2.VerifyIndexes(); err != nil {
		t.Error(err)
	}
}

// TestCheckpointCompactFaultIsTruncateSentinel: when the checkpoint's
// data is durable but segment compaction fails, the error is the typed
// ErrJournalTruncate — callers log and retry, nothing is lost.
func TestCheckpointCompactFaultIsTruncateSentinel(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := New(store)
	inj := faultfs.NewInjector()
	attachFaultJournal(t, db, dir, inj)

	clip, err := db.Ingest("clip", genVideo(6, 8), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := db.SelectDuration(clip, fmt.Sprintf("base%d", i), 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(dir); err != nil { // compaction #1
		t.Fatal(err)
	}
	if _, err := db.SelectDuration(clip, "cut", 1, 3); err != nil {
		t.Fatal(err)
	}
	inj.Add(faultfs.Rule{Op: "journal.compact", Nth: 2})
	err = db.Checkpoint(dir)
	if !errors.Is(err, ErrJournalTruncate) {
		t.Fatalf("compact fault: err = %v, want ErrJournalTruncate", err)
	}
	// The checkpoint itself is durable: the manifest advanced and a
	// reload sees everything without replaying the stale segments.
	if m := db.Manifest(); len(m.Checkpoints) != 2 {
		t.Fatalf("manifest = %+v", m)
	}
	db.CloseJournal()
	db2 := openDB(t, dir)
	if _, err := db2.Lookup("cut"); err != nil {
		t.Error(err)
	}
	if rec := db2.Recovery(); rec.CheckpointsApplied != 1 {
		t.Errorf("recovery = %+v", rec)
	}
	if err := db2.VerifyIndexes(); err != nil {
		t.Error(err)
	}
}

// TestSaveCompactFaultIsTruncateSentinel: a full Save whose snapshot
// and manifest are durable but whose segment compaction fails reports
// the typed ErrJournalTruncate; a retry succeeds and removes what the
// first attempt left.
func TestSaveCompactFaultIsTruncateSentinel(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := New(store)
	attachFaultJournal(t, db, dir, faultfs.NewInjector(faultfs.Rule{Op: "journal.compact", Nth: 1}))
	if _, err := db.Ingest("clip", genVideo(4, 6), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); !errors.Is(err, ErrJournalTruncate) {
		t.Fatalf("compact fault: err = %v, want ErrJournalTruncate", err)
	}
	if m := db.Manifest(); m == nil || m.CheckpointSeq != db.Seq() {
		t.Fatalf("manifest after the faulted save = %+v, want seq %d covered", m, db.Seq())
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	if segs, _ := wal.ListSegments(dir); len(segs) != 1 {
		t.Errorf("segments after the retry = %v, want the active one only", segs)
	}
}

// TestCloseJournalClearsWALDir: CloseJournal used to nil the journal
// but leave the directory binding behind. It must clear both, and a
// post-close Save must still produce a loadable snapshot.
func TestCloseJournalClearsWALDir(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	if _, err := db.Ingest("clip", genVideo(4, 5), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	wd := db.walDir
	db.mu.RUnlock()
	if wd != "" {
		t.Fatalf("walDir = %q after CloseJournal, want cleared", wd)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	db2 := openDB(t, dir)
	if _, err := db2.Lookup("clip"); err != nil {
		t.Fatal(err)
	}
}

// baseCatalog ingests a clip and n cuts of it into a journaled catalog
// at dir and saves it as the base later checkpoints extend.
func baseCatalog(t *testing.T, db *DB, dir string, n int, seed int64) core.ID {
	t.Helper()
	clip, err := db.Ingest("clip", genVideo(4, seed), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := db.SelectDuration(clip, fmt.Sprintf("base%02d", i), 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	return clip
}

// TestCheckpointFailedDeltaIsRecaptured fails a delta after its capture
// — its file's write, or its MANIFEST's, blocked by a directory where
// the temp file goes — over a slice holding a cut, a delete and a BLOB
// collection. The durable state must stay where it was, the next clean
// Checkpoint must cover the same mutations, and a reopen must equal
// the live catalog without replaying a record.
func TestCheckpointFailedDeltaIsRecaptured(t *testing.T) {
	for _, blocked := range []string{"delta", "manifest"} {
		t.Run(blocked, func(t *testing.T) {
			dir := t.TempDir()
			db := openDB(t, dir)
			clip := baseCatalog(t, db, dir, 20, 181)
			saved := db.Manifest()
			if _, err := db.SelectDuration(clip, "cut", 1, 3); err != nil {
				t.Fatal(err)
			}
			base0, err := db.Lookup("base00")
			if err != nil {
				t.Fatal(err)
			}
			gone, err := db.Ingest("gone", genVideo(2, 182), IngestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []core.ID{base0.ID, gone} {
				if err := db.Delete(id); err != nil {
					t.Fatal(err)
				}
			}

			tmp := CheckpointFile(dir, 2) + ".tmp"
			if blocked == "manifest" {
				tmp = wal.ManifestFile(dir) + ".tmp"
			}
			if err := os.MkdirAll(filepath.Join(tmp, "child"), 0o755); err != nil {
				t.Fatal(err)
			}
			err = db.Checkpoint(dir)
			if err == nil || blocked == "manifest" && !errors.Is(err, ErrJournalTruncate) {
				t.Fatalf("blocked %s write: err = %v", blocked, err)
			}
			if m := db.Manifest(); m.CheckpointSeq != saved.CheckpointSeq || len(m.Checkpoints) != 1 {
				t.Fatalf("failed checkpoint moved the manifest: %+v", m)
			}
			if err := os.RemoveAll(tmp); err != nil {
				t.Fatal(err)
			}

			if err := db.Checkpoint(dir); err != nil {
				t.Fatal(err)
			}
			if m := db.Manifest(); len(m.Checkpoints) != 2 || m.CheckpointSeq != db.Seq() {
				t.Fatalf("retry manifest = %+v, want one delta covering seq %d", m, db.Seq())
			}
			img := t.TempDir()
			copyTree(t, dir, img)
			db2 := openDB(t, img)
			defer db2.CloseJournal()
			if rec := db2.Recovery(); rec.JournalRecords != 0 || rec.CheckpointsApplied != 1 {
				t.Errorf("recovery = %+v, want the delta applied and nothing replayed", rec)
			}
			floor := max(db.CurrentView().VersionFloor(), db2.CurrentView().VersionFloor())
			if got, want := catalogDumpFrom(db2, floor), catalogDumpFrom(db, floor); got != want {
				t.Errorf("reopen after the retry:\n%s\nwant:\n%s", got, want)
			}
			if err := db2.VerifyIndexes(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestStartCheckpointerBacksOffOnTruncate: a checkpoint whose cleanup
// fails (ErrJournalTruncate) doubles the checkpointer's delay up to 8×
// the interval, and a success resets it. Every checkpoint leaves a
// mutation behind (the "manifest" hook), so no tick is a quiescent
// no-op.
func TestStartCheckpointerBacksOffOnTruncate(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := New(store)
	inj := faultfs.NewInjector()
	attachFaultJournal(t, db, dir, inj)
	clip := baseCatalog(t, db, dir, 12, 183) // compaction #1
	// Compactions 2–5 fail, 6 succeeds, 7 fails.
	inj.Add(faultfs.Rule{Op: "journal.compact", Nth: 2, Times: 3})
	inj.Add(faultfs.Rule{Op: "journal.compact", Nth: 7})

	n := 0
	if _, err := db.SelectDuration(clip, "tick00", 0, 2); err != nil {
		t.Fatal(err)
	}
	db.checkpointHook = func(stage string) {
		if stage != "manifest" {
			return
		}
		n++
		if _, err := db.SelectDuration(clip, fmt.Sprintf("tick%02d", n), 0, 2); err != nil {
			t.Error(err)
		}
	}
	errs := make(chan error, 16)
	stop := db.StartCheckpointer(dir, time.Millisecond, func(err error) { errs <- err })
	var got []string
	for len(got) < 5 {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrJournalTruncate) {
				t.Fatalf("checkpointer error %v, want ErrJournalTruncate", err)
			}
			msg := err.Error()
			got = append(got, msg[strings.LastIndex(msg, "(")+1:])
		case <-time.After(10 * time.Second):
			t.Fatalf("checkpointer reported %v, then nothing", got)
		}
	}
	stop()
	want := []string{"retrying in 2ms)", "retrying in 4ms)", "retrying in 8ms)", "retrying in 8ms)", "retrying in 2ms)"}
	if !slices.Equal(got, want) {
		t.Errorf("backoff = %q, want %q", got, want)
	}
}

// TestStartCheckpointerStopWaitsForInFlight: stop must not return while
// a checkpoint is between its stages, and the checkpoint it waited for
// is complete when it does.
func TestStartCheckpointerStopWaitsForInFlight(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	clip := baseCatalog(t, db, dir, 8, 184)
	if _, err := db.SelectDuration(clip, "pending", 0, 2); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	db.checkpointHook = func(stage string) {
		if stage == "written" {
			once.Do(func() { close(entered) })
			<-release
		}
	}
	stop := db.StartCheckpointer(dir, time.Millisecond, func(err error) { t.Error(err) })
	<-entered
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("stop returned while a checkpoint was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("stop did not return after the checkpoint finished")
	}
	if m := db.Manifest(); len(m.Checkpoints) != 2 || m.CheckpointSeq != db.Seq() {
		t.Errorf("manifest after stop = %+v, want the in-flight delta at seq %d", m, db.Seq())
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteStormStaysDeltaChain: cuts and deletes ten times the base's
// object count, over as many checkpoints as the chain bound allows, are
// every one a delta — whatever share of the catalog each changed — and
// leave the directory with one base and no backup. The chain reopens to
// the live catalog through the MANIFEST and through the file heads
// alike; the next checkpoint promotes as chain_bound and nothing else.
func TestWriteStormStaysDeltaChain(t *testing.T) {
	dir := t.TempDir()
	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	reg := telemetry.NewRegistry()
	db, err := Open(dir, fs, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseJournal()
	const baseObjects = 4
	clip := baseCatalog(t, db, dir, baseObjects-1, 61)
	promotions := func() map[string]int64 {
		out := map[string]int64{}
		for _, reason := range promotionReasons {
			out[reason] = reg.Counter(telemetry.CheckpointPromotionFamily, `reason="`+reason+`"`).Load()
		}
		return out
	}
	chainFiles := reg.Gauge(telemetry.CheckpointChainFilesFamily, "")
	const writes = 10 * baseObjects
	for i := 0; i < writes; i++ {
		id, err := db.SelectDuration(clip, fmt.Sprintf("storm%02d", i), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if err := db.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		if (i+1)%(writes/DefaultMaxCheckpointChain) == 0 {
			if err := db.Checkpoint(dir); err != nil {
				t.Fatal(err)
			}
			want := (i+1)/(writes/DefaultMaxCheckpointChain) + 1
			if got := len(db.Manifest().Checkpoints); got != want || chainFiles.Load() != int64(want) {
				t.Fatalf("after write %d: chain of %d files (gauge %d), want %d deltas on the base", i, got, chainFiles.Load(), want-1)
			}
		}
	}
	for reason, n := range promotions() {
		if n != 0 {
			t.Errorf("a write storm promoted %d checkpoints as %s", n, reason)
		}
	}
	if got, want := len(chainFilesOnDisk(t, dir)), DefaultMaxCheckpointChain+1; got != want {
		t.Errorf("%d checkpoint files on disk, want the base and %d deltas, no backup: %v", got, want-1, chainFilesOnDisk(t, dir))
	}
	live := catalogDump(db)
	bare := t.TempDir()
	copyTree(t, dir, bare)
	if err := os.Remove(wal.ManifestFile(bare)); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{dir, bare} {
		fs2, err := blob.OpenFileStore(d)
		if err != nil {
			t.Fatal(err)
		}
		db2, err := Load(d, fs2)
		if err != nil {
			t.Fatal(err)
		}
		if rec := db2.Recovery(); rec.CheckpointsApplied != DefaultMaxCheckpointChain || rec.JournalRecords != 0 {
			t.Errorf("%s: reopen applied %d deltas and replayed %d records, want %d and none", d, rec.CheckpointsApplied, rec.JournalRecords, DefaultMaxCheckpointChain)
		}
		if got := catalogDump(db2); got != live {
			t.Errorf("%s reopens to\n%s\nwant the live catalog\n%s", d, got, live)
		}
		fs2.Close()
	}

	if _, err := db.SelectDuration(clip, "overflow", 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{promoteNoJournal: 0, promoteNoBase: 0, promoteChainBound: 1}
	if got := promotions(); !maps.Equal(got, want) || chainFiles.Load() != 1 {
		t.Errorf("past the bound: promotions %v and a chain of %d, want %v and 1", got, chainFiles.Load(), want)
	}
}

// TestCheckpointPromotionReasons: each way a Checkpoint goes full is
// counted once under its reason.
func TestCheckpointPromotionReasons(t *testing.T) {
	dir := t.TempDir()
	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	reg := telemetry.NewRegistry()
	db, err := Open(dir, fs, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseJournal()
	clip, err := db.Ingest("clip", genVideo(4, 185), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cut := func(name string) {
		if _, err := db.SelectDuration(clip, name, 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint := func(dir string) {
		if err := db.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint(dir) // no manifest yet: no_base
	for i := 0; i <= DefaultMaxCheckpointChain; i++ {
		cut(fmt.Sprintf("inc%02d", i))
		checkpoint(dir) // the last one: chain_bound
	}
	checkpoint(t.TempDir()) // not the journal's directory: no_journal
	for _, reason := range promotionReasons {
		if n := reg.Counter(telemetry.CheckpointPromotionFamily, `reason="`+reason+`"`).Load(); n != 1 {
			t.Errorf("promotions{reason=%q} = %d, want 1", reason, n)
		}
	}
}
