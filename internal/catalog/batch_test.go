package catalog

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
	"timedmedia/internal/faultfs"
	"timedmedia/internal/wal"
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
	crash(db)
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

// TestAddBatchValidationOrder: whatever is wrong with an item — no
// shape, an unknown input name, a name taken inside the batch or in the
// catalog — the error names the first failing item in item order, and
// nothing stays staged: the same batch without its bad items succeeds
// with the IDs the refused one would have used.
func TestAddBatchValidationOrder(t *testing.T) {
	good := func(name string) BatchItem {
		return BatchItem{Name: name, Op: "video-edit", InputNames: []string{"clip"}, Params: cutParams(0, 2)}
	}
	shapeless := BatchItem{Name: "shapeless"}
	orphan := BatchItem{Name: "orphan", Op: "video-edit", InputNames: []string{"no-such-object"}, Params: cutParams(0, 1)}
	cases := []struct {
		name  string
		items []BatchItem
		bad   []int // indices of the items that cannot be added; the first is the one reported
		want  error // nil: only the text is checked
	}{
		{"neither shape", []BatchItem{good("g0"), shapeless, good("g2")}, []int{1}, nil},
		{"unknown input name", []BatchItem{good("g0"), orphan}, []int{1}, ErrNotFound},
		{"name duplicated inside the batch", []BatchItem{good("g0"), good("g1"), good("g0")}, []int{2}, ErrDupName},
		{"name duplicated against the catalog", []BatchItem{good("g0"), good("clip")}, []int{1}, ErrDupName},
		{"two bad items, the earlier one reported", []BatchItem{good("g0"), orphan, good("g2"), shapeless}, []int{1, 3}, ErrNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := memDB()
			clip, err := db.Ingest("clip", genVideo(6, 11), IngestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			epoch, seq := db.CurrentView().Epoch(), db.Seq()

			_, err = db.AddBatch(tc.items)
			if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if label := fmt.Sprintf("batch item %d (%q)", tc.bad[0], tc.items[tc.bad[0]].Name); !strings.Contains(err.Error(), label) {
				t.Errorf("err = %q, want it to name %s", err, label)
			}
			if got := db.CurrentView().Epoch(); got != epoch {
				t.Errorf("a refused batch published %d epochs", got-epoch)
			}
			if got := db.Seq(); got != seq {
				t.Errorf("a refused batch consumed %d seqs", got-seq)
			}

			var rest []BatchItem
			for i, it := range tc.items {
				if !slices.Contains(tc.bad, i) {
					rest = append(rest, it)
				}
			}
			ids, err := db.AddBatch(rest)
			if err != nil {
				t.Fatalf("the batch without its bad items: %v", err)
			}
			for i, id := range ids {
				if want := clip + 1 + core.ID(i); id != want {
					t.Errorf("%s = %v, want %v (the refused batch left something staged)", rest[i].Name, id, want)
				}
			}
		})
	}
}

// TestSingleAddIsBatchOfOne: AddDerived(x) and AddBatch([x]) are the
// same commit — on twin catalogs they leave byte-identical journal
// segments and equal IDs, seqs and epoch numbers.
func TestSingleAddIsBatchOfOne(t *testing.T) {
	type outcome struct {
		id         core.ID
		seq, epoch uint64
		journal    map[string]string
	}
	run := func(add func(db *DB, clip core.ID) (core.ID, error)) outcome {
		dir := t.TempDir()
		fs, err := blob.OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		db, err := Open(dir, fs)
		if err != nil {
			t.Fatal(err)
		}
		clip, err := db.Ingest("clip", genVideo(6, 12), IngestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		id, err := add(db, clip)
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{id: id, seq: db.Seq(), epoch: db.CurrentView().Epoch(), journal: map[string]string{}}
		if err := db.CloseJournal(); err != nil {
			t.Fatal(err)
		}
		segs, err := wal.ListSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range segs {
			data, err := os.ReadFile(wal.SegmentFile(dir, idx))
			if err != nil {
				t.Fatal(err)
			}
			out.journal[filepath.Base(wal.SegmentFile(dir, idx))] = string(data)
		}
		return out
	}
	attrs := map[string]string{"lang": "fr"}
	single := run(func(db *DB, clip core.ID) (core.ID, error) {
		return db.AddDerived("cut", "video-edit", []core.ID{clip}, cutParams(1, 4), attrs)
	})
	batch := run(func(db *DB, clip core.ID) (core.ID, error) {
		ids, err := db.AddBatch([]BatchItem{{Name: "cut", Op: "video-edit", Inputs: []core.ID{clip}, Params: cutParams(1, 4), Attrs: attrs}})
		if err != nil {
			return 0, err
		}
		return ids[0], nil
	})
	if single.id != batch.id || single.seq != batch.seq || single.epoch != batch.epoch {
		t.Errorf("single add: id %v seq %d epoch %d; batch of one: id %v seq %d epoch %d",
			single.id, single.seq, single.epoch, batch.id, batch.seq, batch.epoch)
	}
	if len(single.journal) == 0 || !maps.Equal(single.journal, batch.journal) {
		t.Errorf("journal segments differ: single %d files, batch %d files", len(single.journal), len(batch.journal))
	}
}
