package catalog

import (
	"errors"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
	"timedmedia/internal/faultfs"
)

func cutParams(from, to int64) []byte {
	return derive.EncodeParams(derive.EditParams{Entries: []derive.EditEntry{{Input: 0, From: from, To: to}}})
}

// TestAddBatchChainsNames: a batch may build a derivation chain whose
// later items reference earlier ones by name.
func TestAddBatchChainsNames(t *testing.T) {
	db := memDB()
	clip, err := db.Ingest("clip", genVideo(10, 3), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := db.AddBatch([]BatchItem{
		{Name: "act1", Op: "video-edit", Inputs: []core.ID{clip}, Params: cutParams(0, 6)},
		{Name: "teaser", Op: "video-edit", InputNames: []string{"act1"}, Params: cutParams(0, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}
	teaser, err := db.Lookup("teaser")
	if err != nil {
		t.Fatal(err)
	}
	if teaser.Derivation.Inputs[0] != ids[0] {
		t.Errorf("teaser input = %v, want %v", teaser.Derivation.Inputs[0], ids[0])
	}
	v, err := db.Expand(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Video) != 2 {
		t.Errorf("frames = %d", len(v.Video))
	}
}

// TestAddBatchAllOrNothing: a validation failure on any item leaves
// the catalog exactly as it was — no objects, no reserved names, no
// consumed IDs.
func TestAddBatchAllOrNothing(t *testing.T) {
	db := memDB()
	clip, err := db.Ingest("clip", genVideo(8, 4), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := db.Len()
	_, err = db.AddBatch([]BatchItem{
		{Name: "good", Op: "video-edit", Inputs: []core.ID{clip}, Params: cutParams(0, 4)},
		{Name: "bad", Op: "video-edit", InputNames: []string{"no-such-object"}, Params: cutParams(0, 1)},
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if db.Len() != before {
		t.Errorf("len = %d, want %d", db.Len(), before)
	}
	if _, err := db.Lookup("good"); !errors.Is(err, ErrNotFound) {
		t.Errorf("good leaked: %v", err)
	}
	// The names and IDs must be reusable.
	ids, err := db.AddBatch([]BatchItem{
		{Name: "good", Op: "video-edit", Inputs: []core.ID{clip}, Params: cutParams(0, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != clip+1 {
		t.Errorf("id = %v, want %v (failed batch consumed IDs)", ids[0], clip+1)
	}
}

// TestAddBatchJournalFaultRollsBack: a journal fault mid-batch undoes
// the whole batch, and what survives a crash+replay equals what was
// acknowledged.
func TestAddBatchJournalFaultRollsBack(t *testing.T) {
	dir := t.TempDir()
	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := New(fs)
	inj := faultfs.NewInjector()
	attachFaultJournal(t, db, dir, inj)
	clip, err := db.Ingest("clip", genVideo(10, 5), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Fail the second record of the next batch, whatever the ingest
	// above cost in journal appends.
	inj.Add(faultfs.Rule{Op: "journal.append", Nth: inj.Count("journal.append") + 2})

	_, err = db.AddBatch([]BatchItem{
		{Name: "a", Op: "video-edit", Inputs: []core.ID{clip}, Params: cutParams(0, 4)},
		{Name: "b", Op: "video-edit", InputNames: []string{"a"}, Params: cutParams(0, 2)},
	})
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("err = %v", err)
	}
	for _, name := range []string{"a", "b"} {
		if _, err := db.Lookup(name); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s visible after failed batch: %v", name, err)
		}
	}
	// A retry under fresh names (and fresh seqs) must succeed...
	ids, err := db.AddBatch([]BatchItem{
		{Name: "c", Op: "video-edit", Inputs: []core.ID{clip}, Params: cutParams(0, 3)},
		{Name: "d", Op: "video-edit", InputNames: []string{"c"}, Params: cutParams(0, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// ...and the crash image must contain exactly the acked batch.
	fs2, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, fs2)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"c", "d"} {
		obj, err := db2.Lookup(name)
		if err != nil {
			t.Fatalf("%s lost in crash: %v", name, err)
		}
		if obj.ID != ids[i] {
			t.Errorf("%s replayed as %v, want %v", name, obj.ID, ids[i])
		}
	}
	for _, name := range []string{"a", "b"} {
		if _, err := db2.Lookup(name); !errors.Is(err, ErrNotFound) {
			t.Errorf("rolled-back %s resurrected by replay: %v", name, err)
		}
	}
}

// TestAddBatchCrashReplayKeepsIDs: batch-created objects replay at
// their recorded IDs even though the journal was written as one
// frame sequence.
func TestAddBatchCrashReplayKeepsIDs(t *testing.T) {
	dir := t.TempDir()
	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	clip, err := db.Ingest("clip", genVideo(12, 6), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var items []BatchItem
	for i := 0; i < 5; i++ {
		items = append(items, BatchItem{
			Name: "cut" + string(rune('0'+i)), Op: "video-edit",
			Inputs: []core.ID{clip}, Params: cutParams(int64(i), int64(i)+3),
		})
	}
	ids, err := db.AddBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	// Crash without Save.
	fs2, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, fs2)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		obj, err := db2.Lookup(it.Name)
		if err != nil {
			t.Fatalf("%s: %v", it.Name, err)
		}
		if obj.ID != ids[i] {
			t.Errorf("%s = %v, want %v", it.Name, obj.ID, ids[i])
		}
	}
}

// TestBatchStatsSingleFsync: one AddBatch of N items costs one WAL
// batch (one fsync), not N.
func TestBatchStatsSingleFsync(t *testing.T) {
	dir := t.TempDir()
	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	clip, err := db.Ingest("clip", genVideo(8, 7), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := db.JournalStats()
	_, err = db.AddBatch([]BatchItem{
		{Name: "x", Op: "video-edit", Inputs: []core.ID{clip}, Params: cutParams(0, 2)},
		{Name: "y", Op: "video-edit", Inputs: []core.ID{clip}, Params: cutParams(2, 4)},
		{Name: "z", Op: "video-edit", Inputs: []core.ID{clip}, Params: cutParams(4, 6)},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := db.JournalStats()
	if got := s.Appends - base.Appends; got != 3 {
		t.Errorf("appends = %d, want 3", got)
	}
	if got := s.Batches - base.Batches; got != 1 {
		t.Errorf("batches = %d, want 1", got)
	}
}
