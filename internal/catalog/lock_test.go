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
	read := func() map[string]string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range ents {
			data, _ := os.ReadFile(filepath.Join(dir, e.Name()))
			files[e.Name()] = string(data)
		}
		return files
	}
	before := read()
	fs2, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, fs2)
	if !errors.Is(err, durable.ErrLocked) || !strings.Contains(err.Error(), fmt.Sprintf("pid %d", os.Getpid())) {
		t.Fatalf("second Open = %v, want ErrLocked naming pid %d", err, os.Getpid())
	}
	if after := read(); !maps.Equal(before, after) {
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
