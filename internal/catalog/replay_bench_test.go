package catalog

import (
	"fmt"
	"os"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
)

// Recovery and catch-up over a journal of ~1 k records (one clip, then
// cuts of it in batches of 50): replay commits them in runs, and
// ApplyReplicated takes them as runs of replayRun frames, each one WAL
// batch with one fsync. Both report journal syncs per op beside allocs/op.

// replayFixture journals one clip and ~1 k cuts of it in dir, which it
// leaves holding only the journal and the clip's BLOB.
func replayFixture(b *testing.B, dir string) {
	b.Helper()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	db, err := Open(dir, store)
	if err != nil {
		b.Fatal(err)
	}
	clip, err := db.Ingest("clip", genVideo(4, 1), IngestOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		items := make([]BatchItem, 50)
		for i := range items {
			items[i] = BatchItem{Name: fmt.Sprintf("cut%02d.%02d", k, i), Op: "video-edit", Inputs: []core.ID{clip}, Params: cutParams(0, 2)}
		}
		if _, err := db.AddBatch(items); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.CloseJournal(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkReplayRuns(b *testing.B) {
	dir := b.TempDir()
	replayFixture(b, dir)
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	var syncs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open(dir, store)
		if err != nil {
			b.Fatal(err)
		}
		if db.Recovery().JournalRecords < 1000 {
			b.Fatalf("replayed %d records", db.Recovery().JournalRecords)
		}
		syncs += db.JournalStats().Syncs
		if err := db.CloseJournal(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(syncs)/float64(b.N), "syncs/op")
}

func BenchmarkApplyReplicatedRun(b *testing.B) {
	src := b.TempDir()
	replayFixture(b, src)
	frames := journalFrames(b, src)
	store, err := blob.OpenFileStore(src)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	var syncs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp(b.TempDir(), "follower")
		if err != nil {
			b.Fatal(err)
		}
		db := New(store)
		if err := db.OpenJournal(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for lo := 0; lo < len(frames); lo += replayRun {
			if _, err := db.ApplyReplicated(frames[lo:min(lo+replayRun, len(frames))]...); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		syncs += db.JournalStats().Syncs
		if err := db.CloseJournal(); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
		b.StartTimer()
	}
	b.ReportMetric(float64(syncs)/float64(b.N), "syncs/op")
}
