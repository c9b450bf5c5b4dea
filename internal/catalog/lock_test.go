package catalog

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/durable"
	"timedmedia/internal/wal"
)

// TestOpenLocksDir: an open catalog owns its directory. A second Open,
// here from the same process, fails with durable.ErrLocked naming the
// holder's PID, and creates, removes and sweeps nothing, though the
// directory holds a stray BLOB an Open would sweep. CloseJournal
// releases the lock.
func TestOpenLocksDir(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	if _, err := db.Ingest("clip", genVideo(4, 1), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "99.blob"), []byte("stray"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := readDir(t, dir)
	fs2, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, fs2)
	if !errors.Is(err, durable.ErrLocked) || !strings.Contains(err.Error(), fmt.Sprintf("pid %d", os.Getpid())) {
		t.Fatalf("second Open = %v, want ErrLocked naming pid %d", err, os.Getpid())
	}
	if after := readDir(t, dir); !maps.Equal(before, after) {
		t.Errorf("the refused Open changed the directory: %d files before, %d after", len(before), len(after))
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, fs2)
	if err != nil {
		t.Fatalf("Open after CloseJournal: %v", err)
	}
	defer db2.CloseJournal()
	if db2.Recovery().BlobsSwept != 1 {
		t.Errorf("the reopen swept %d BLOBs, want the stray one", db2.Recovery().BlobsSwept)
	}
}

// attachJournal attaches dir's journal to db for appending, with no
// replay and no lock: the follower twins of these tests write their own
// empty directory, and read the primary's BLOB store, which Open's
// sweep would empty.
func attachJournal(t testing.TB, db *DB, dir string) {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.attachJournalLocked(dir); err != nil {
		t.Fatal(err)
	}
}

// readDir returns every file in dir by name, with its bytes.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestLoadWritesNothing: a Load of a directory another Open holds reads
// up to the torn tail of the holder's active journal segment (a partial
// frame, as an append in progress leaves it), or loads past a damaged
// base or MANIFEST, and leaves every file byte-identical. The next
// Open, under the lock, cuts the tail or sets the damaged file aside.
func TestLoadWritesNothing(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	if _, err := db.Ingest("clip", genVideo(4, 1), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.ListSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments %v: %v", segs, err)
	}
	active := wal.SegmentFile(dir, segs[len(segs)-1])
	f, err := os.OpenFile(active, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("WAL1\x00\x00\x01")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before := readDir(t, dir)

	fs2, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, fs2)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Recovery().JournalTorn || loaded.Len() != 1 {
		t.Errorf("Load: torn tail %v, %d objects; want the tail seen and the clip", loaded.Recovery().JournalTorn, loaded.Len())
	}
	if after := readDir(t, dir); !maps.Equal(before, after) {
		for name, data := range before {
			if after[name] != data {
				t.Errorf("Load changed %s: %d bytes before, %d after", name, len(data), len(after[name]))
			}
		}
		t.Fatal("Load wrote into a directory another Open holds")
	}

	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, fs2)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.CloseJournal()
	if st, err := os.Stat(active); err != nil || st.Size() != int64(len(before[filepath.Base(active)])-7) {
		t.Errorf("Open left the torn tail: %v", err)
	}

	// A damaged base, or a damaged MANIFEST: Load loads past it and
	// renames nothing; the holder's next Open sets it aside.
	for _, damaged := range []string{"base", "MANIFEST"} {
		t.Run(damaged, func(t *testing.T) {
			dir := t.TempDir()
			db := openDB(t, dir)
			clip := savedClip(t, db, dir, "clip", 91)
			if _, err := db.SelectDuration(clip, "late", 0, 2); err != nil {
				t.Fatal(err)
			}
			if err := db.Save(dir); err != nil { // the first base becomes the backup
				t.Fatal(err)
			}
			path := wal.ManifestFile(dir)
			if damaged == "base" {
				path = chainFile(t, dir, 0)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x08
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			before := readDir(t, dir)

			loaded, err := Load(dir, db.Store())
			if err != nil {
				t.Fatalf("Load past the damaged %s: %v", damaged, err)
			}
			if rec := loaded.Recovery(); (!rec.UsedBackup && !rec.ManifestCorrupt) || len(rec.Quarantined) != 0 {
				t.Errorf("Load's recovery = %+v, want the damage seen and nothing set aside", rec)
			}
			if after := readDir(t, dir); !maps.Equal(before, after) {
				t.Fatalf("Load of a held directory with a damaged %s changed it: %d files before, %d after", damaged, len(before), len(after))
			}

			if err := db.CloseJournal(); err != nil {
				t.Fatal(err)
			}
			db2 := openDB(t, dir)
			defer db2.CloseJournal()
			if q := db2.Recovery().Quarantined; len(q) != 1 || q[0] != path+".corrupt" {
				t.Errorf("Open quarantined %q, want %s.corrupt", q, path)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestForeignSaveRefused: Save and Checkpoint into a directory another
// Open holds fail with durable.ErrLocked and change nothing there; the
// holder's own writes, and a write by a DB opened under WithDirLock,
// go through; and a write into a fresh directory leaves no lock file.
func TestForeignSaveRefused(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	if _, err := db.Ingest("clip", genVideo(4, 1), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatalf("the holder's Save: %v", err)
	}
	before := readDir(t, dir)
	foreign := New(blob.NewMemStore())
	for name, write := range map[string]func(string) error{"Save": foreign.Save, "Checkpoint": foreign.Checkpoint} {
		if err := write(dir); !errors.Is(err, durable.ErrLocked) {
			t.Errorf("foreign %s into a held directory = %v, want ErrLocked", name, err)
		}
	}
	if after := readDir(t, dir); !maps.Equal(before, after) {
		t.Errorf("the refused writes changed the directory: %d files before, %d after", len(before), len(after))
	}
	if _, err := db.Ingest("clip2", genVideo(2, 2), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(dir); err != nil {
		t.Fatalf("the holder's Checkpoint: %v", err)
	}

	fresh := filepath.Join(t.TempDir(), "fresh")
	if err := foreign.Save(fresh); err != nil {
		t.Fatalf("Save into a fresh directory: %v", err)
	}
	if _, err := os.Stat(filepath.Join(fresh, durable.LockFileName)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Save into a fresh directory left its lock file: %v", err)
	}

	under := t.TempDir()
	l, err := durable.LockDir(under)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Unlock()
	fs, err := blob.OpenFileStore(under)
	if err != nil {
		t.Fatal(err)
	}
	held, err := Open(under, fs, WithDirLock(l))
	if err != nil {
		t.Fatal(err)
	}
	defer held.CloseJournal()
	if err := held.Save(under); err != nil {
		t.Errorf("Save under WithDirLock: %v", err)
	}
}
