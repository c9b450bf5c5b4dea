package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
	"timedmedia/internal/durable"
	"timedmedia/internal/faultfs"
	"timedmedia/internal/telemetry"
	"timedmedia/internal/timebase"
	"timedmedia/internal/wal"
)

// Tests of the TBMCATS4 snapshot payload: what a reload hands back,
// what it refuses, and what it survives.

// countingStore counts Open calls per BLOB.
type countingStore struct {
	blob.Store
	mu    sync.Mutex
	opens map[blob.ID]int
}

func (s *countingStore) Open(id blob.ID) (blob.BLOB, error) {
	s.mu.Lock()
	s.opens[id]++
	s.mu.Unlock()
	return s.Store.Open(id)
}

// savedClip ingests a clip and six cuts of it, then saves: with that
// much live state, a Checkpoint after a few more mutations stays a
// delta instead of being promoted to a full save.
func savedClip(t testing.TB, db *DB, dir, name string, seed int64) core.ID {
	t.Helper()
	clip, err := db.Ingest(name, genVideo(4, seed), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := db.SelectDuration(clip, fmt.Sprintf("%s-cut%d", name, i), 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	return clip
}

// checkpointDelta checkpoints and insists the result is the chain's
// first delta file.
func checkpointDelta(t testing.TB, db *DB, dir string) {
	t.Helper()
	if err := db.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if m := db.Manifest(); len(m.Checkpoints) != 2 {
		t.Fatal("checkpoint was promoted to a full save; the test wants a delta")
	}
}

// checkReloadedOnce asserts what a reload promises beyond equal
// content: every BLOB was opened exactly once.
func checkReloadedOnce(t *testing.T, db *DB, store *countingStore) {
	t.Helper()
	v := db.CurrentView()
	if err := v.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
	if err := v.VerifyVersions(); err != nil {
		t.Fatal(err)
	}
	v.interpVers.ascend(func(id blob.ID, c *interpVerChain) bool {
		if n := store.opens[id]; c.live() && n != 1 {
			t.Errorf("%v opened %d times during load, want 1", id, n)
		}
		return true
	})
	if len(store.opens) != v.interpCount {
		t.Errorf("load opened %d BLOBs, catalog interprets %d", len(store.opens), v.interpCount)
	}
}

// TestReloadSharesLiveStateWithChainTails: after Save → Load, and after
// Save → mutations → Checkpoint → Load, the live objects and
// interpretations are the chain tails themselves.
func TestReloadSharesLiveStateWithChainTails(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	a, err := db.Ingest("a", genVideo(6, 41), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Ingest("b", genVideo(6, 42), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := db.AddMultimedia("mm", timebase.Millis, []core.ComponentRef{{Object: a}, {Object: b, Start: 50}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := db.SelectDuration(a, "cut"+string(rune('0'+i)), 0, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	reload := func() {
		t.Helper()
		fs, err := blob.OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		store := &countingStore{Store: fs, opens: map[blob.ID]int{}}
		got, err := Load(dir, store)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != db.Len() {
			t.Fatalf("reloaded %d objects, want %d", got.Len(), db.Len())
		}
		checkReloadedOnce(t, got, store)
	}
	reload()

	// A sync revision, a delete that collects a BLOB, a fresh ingest and
	// a name re-used across the delete, then an incremental checkpoint.
	if err := db.AddSync(mm, 0, 1, 10); err != nil {
		t.Fatal(err)
	}
	c, err := db.Ingest("c", genVideo(4, 43), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(c); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest("c", genVideo(4, 44), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	checkpointDelta(t, db, dir)
	reload()
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenAfterLastReaderDeleted: deleting the last reader of a BLOB
// the base snapshot registers keeps the BLOB's file until a checkpoint
// covers the delete. The directory reopens to the same catalogDump
// whether the delete is still in the journal — file and history intact
// — or already in an incremental checkpoint, which unlinked the file:
// there the history that read it is gone, so as-of reads below the
// delete are refused and the dumps agree from the delete on.
func TestReopenAfterLastReaderDeleted(t *testing.T) {
	for _, tc := range []struct {
		name       string
		checkpoint bool
	}{{"journal", false}, {"delta", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db := openDB(t, dir)
			clip, err := db.Ingest("clip", genVideo(3, 51), IngestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			obj, err := db.Get(clip)
			if err != nil {
				t.Fatal(err)
			}
			savedClip(t, db, dir, "keep", 52)
			if err := db.Delete(clip); err != nil {
				t.Fatal(err)
			}
			floor := db.CurrentView().VersionFloor()
			if tc.checkpoint {
				checkpointDelta(t, db, dir)
				floor = db.Seq()
			}
			if err := db.CloseJournal(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(blobFile(dir, obj.Blob)); (err == nil) == tc.checkpoint {
				t.Errorf("clip's BLOB file after a checkpoint %v: %v", tc.checkpoint, err)
			}

			db2 := openDB(t, dir)
			v := db2.CurrentView()
			if got := v.VersionFloor(); got != floor {
				t.Errorf("version floor = %d, want %d", got, floor)
			}
			if got, want := catalogDumpFrom(db2, floor), catalogDumpFrom(db, floor); got != want {
				t.Errorf("reopened as\n%s\nwant\n%s", got, want)
			}
			if err := v.VerifyVersions(); err != nil {
				t.Error(err)
			}
			if err := v.VerifyIndexes(); err != nil {
				t.Error(err)
			}
			if err := db2.CloseJournal(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReopenAfterJournaledReaderDeleted: a delete of a BLOB's last
// reader whose records — the registration, readers, what was built on
// them — are in the journal, not in a snapshot. The directory reopens
// to the same catalogDump and goes on taking writes and checkpoints,
// the checkpoint unlinking the collected BLOB; a follower shipped the
// same records applies them to the same catalogDump, and reopens to it.
func TestReopenAfterJournaledReaderDeleted(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for name, history := range map[string]func(db *DB, save func()){
		// Replay meets the interp record first; a cut, a composition and a
		// sync hang off the clip.
		"ingest then delete": func(db *DB, _ func()) {
			clip, err := db.Ingest("clip", genVideo(3, 53), IngestOptions{})
			must(err)
			cut, err := db.SelectDuration(clip, "cut", 0, 2)
			must(err)
			mm, err := db.AddMultimedia("mm", timebase.Millis, []core.ComponentRef{{Object: clip}, {Object: cut, Start: 40}}, nil)
			must(err)
			must(db.AddSync(mm, 0, 1, 10))
			must(db.Delete(mm))
			must(db.Delete(cut))
			must(db.Delete(clip))
		},
		// The snapshot names the registration and its first reader; a
		// second reader and both deletes follow in the journal.
		"second reader of a snapshotted BLOB": func(db *DB, save func()) {
			clip, err := db.Ingest("clip", genVideo(3, 54), IngestOptions{})
			must(err)
			save()
			obj, err := db.Get(clip)
			must(err)
			second, err := db.AddNonDerived("second", obj.Blob, obj.Track, nil)
			must(err)
			must(db.Delete(clip))
			must(db.Delete(second))
		},
	} {
		// run plays the history on a fresh primary beside a clip that stays.
		run := func(save bool) (*DB, string) {
			dir := t.TempDir()
			db := openDB(t, dir)
			_, err := db.Ingest("keep", genVideo(3, 55), IngestOptions{})
			must(err)
			history(db, func() {
				if save {
					must(db.Save(dir))
				}
			})
			must(db.CloseJournal())
			return db, dir
		}
		check := func(got, want *DB) {
			t.Helper()
			if g, w := catalogDump(got), catalogDump(want); g != w {
				t.Errorf("%s: opens as\n%s\nwant\n%s", name, g, w)
			}
			v := got.CurrentView()
			if err := v.VerifyVersions(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if err := v.VerifyIndexes(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}

		primary, dir := run(true)
		db := openDB(t, dir)
		check(db, primary)
		if got := db.Recovery().BlobsSwept; got != 0 {
			t.Errorf("%s: Open swept %d BLOBs the journal still names", name, got)
		}
		_, err := db.Ingest("clip", genVideo(3, 56), IngestOptions{}) // the deleted name is free again
		must(err)
		must(db.Checkpoint(dir))
		must(db.CloseJournal())
		again := openDB(t, dir)
		if again.Len() != 2 {
			t.Errorf("%s: %d objects after a checkpoint and a second reopen, want 2", name, again.Len())
		}
		if stray := strayBlobs(t, again, dir); len(stray) != 0 {
			t.Errorf("%s: the checkpoint left uninterpreted BLOB files %v", name, stray)
		}
		must(again.CloseJournal())

		// The replicated-apply twin: no checkpoint, so the whole history
		// ships, and the follower reads the primary's store, where the
		// deleted clip's BLOB waits for a checkpoint.
		primary, dir = run(false)
		follower := New(primary.Store())
		fdir := t.TempDir()
		must(follower.OpenJournal(fdir))
		_, err = wal.ReplaySegments(dir, func(rec []byte) error {
			_, err := follower.ApplyReplicated(rec)
			return err
		})
		must(err)
		check(follower, primary)
		must(follower.CloseJournal())
		reopened, err := Open(fdir, primary.Store())
		must(err)
		check(reopened, primary)
	}
}

// fixtureAttrs are the attributes of the fixture history's last cut: more
// than one, so the journal bytes the fixture pins depend on the codec
// writing attributes in key order, not in whatever order a map yields.
var fixtureAttrs = map[string]string{"language": "fr", "rights": "cleared", "title": "closing shot"}

// writeFixture, when set, makes TestRecoverFormatFixture write the
// fixture history into that directory instead of testing:
//
//	go test -run '^TestRecoverFormatFixture$' ./internal/catalog -args -write-fixture=$PWD/internal/catalog/testdata/NAME
var writeFixture = flag.String("write-fixture", "", "write the format fixture history into this directory")

// writeFormatFixtureHistory runs the fixed history behind
// testdata/format_pr44 (and format_pr36 and format_pr31 before it) in
// dir: a base, one delta over it with a delete that collects a BLOB the
// snapshot names, and a journal tail. It returns the catalog, its
// journal closed.
func writeFormatFixtureHistory(t *testing.T, dir string) *DB {
	t.Helper()
	db := openDB(t, dir)
	gone, err := db.Ingest("gone", genVideo(2, 92), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clip := savedClip(t, db, dir, "clip", 91) // with six cuts, then Save
	if _, err := db.SelectDuration(clip, "late", 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(gone); err != nil {
		t.Fatal(err)
	}
	checkpointDelta(t, db, dir)
	params := derive.EncodeParams(derive.EditParams{Entries: []derive.EditEntry{{Input: 0, From: 0, To: 1}}})
	if _, err := db.AddDerived("later", "video-edit", []core.ID{clip}, params, fixtureAttrs); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	return db
}

// isContainer reports whether a database file is a snapshot container.
func isContainer(name string) bool {
	return strings.HasSuffix(name, ".ckpt")
}

// containerView is what pins a snapshot or chain file: its 12-byte
// container header and the payload inside, byte for byte — not the
// DEFLATE bytes one toolchain's compress/flate chose for it.
func containerView(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data[:12]) + string(payloadOf(t, path))
}

// TestRecoverFormatFixture pins the on-disk format:
// testdata/format_pr44 is what the commit that made the MANIFEST's
// chain the only root wrote for the fixture history. It must open —
// MANIFEST, base, delta, segments, BLOBs — as the catalog the
// history built, and the bytes are a function of the history: written
// again in this process, once as it is and once after gob has numbered
// types the catalog never encodes, the MANIFEST, journal and BLOB files
// are the fixture's byte for byte, and so are each container's header
// and inflated payload.
func TestRecoverFormatFixture(t *testing.T) {
	if *writeFixture != "" {
		writeFormatFixtureHistory(t, *writeFixture)
		return
	}
	const fixture = "testdata/format_pr44"
	dir := t.TempDir()
	copyTree(t, fixture, dir)
	db := openDB(t, dir)
	rec := db.Recovery()
	if !rec.SnapshotLoaded || rec.UsedBackup || len(rec.Quarantined) != 0 || rec.ManifestCorrupt ||
		rec.CheckpointChainBroken || rec.CheckpointsApplied != 1 || rec.JournalRecords != 1 || rec.JournalTorn ||
		rec.BlobsSwept != 0 {
		t.Errorf("recovery of the fixture = %+v", rec)
	}
	for _, name := range []string{"clip", "clip-cut0", "clip-cut5", "late", "later"} {
		if _, err := db.Lookup(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if later, err := db.Lookup("later"); err == nil && !maps.Equal(later.Attrs, fixtureAttrs) {
		t.Errorf("the replayed cut's attributes = %v, want %v", later.Attrs, fixtureAttrs)
	}
	if _, err := db.Lookup("gone"); !errors.Is(err, ErrNotFound) || db.Len() != 9 {
		t.Errorf("%d objects (deleted one: %v), want 9 and not found", db.Len(), err)
	}
	if err := db.VerifyIndexes(); err != nil {
		t.Error(err)
	}
	if err := db.CurrentView().VerifyVersions(); err != nil {
		t.Error(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	// The delta unlinked the collected BLOB, so the history below its
	// delete is gone from the reopened catalog; from there on the two
	// agree.
	floor := db.CurrentView().VersionFloor()
	opened := catalogDumpFrom(db, floor)

	was, _ := os.ReadDir(fixture)
	for _, warm := range []bool{false, true} {
		if warm {
			// Gob numbers types process-wide in order of first encoding.
			type unrelated struct {
				A map[string][]int
				B *struct{ C float64 }
			}
			if err := gob.NewEncoder(io.Discard).Encode(unrelated{A: map[string][]int{"x": {1}}, B: &struct{ C float64 }{2}}); err != nil {
				t.Fatal(err)
			}
		}
		fresh := t.TempDir()
		writer := writeFormatFixtureHistory(t, fresh)
		if want := catalogDumpFrom(writer, floor); opened != want {
			t.Errorf("gob warmed %v: the fixture opens as\n%s\nwant what the history built:\n%s", warm, opened, want)
		}
		now, _ := os.ReadDir(fresh)
		// The lock file Open leaves is not catalog state.
		now = slices.DeleteFunc(now, func(e os.DirEntry) bool { return e.Name() == durable.LockFileName })
		if len(now) != len(was) || len(was) == 0 {
			t.Errorf("gob warmed %v: the history leaves %d files, the fixture has %d", warm, len(now), len(was))
		}
		for _, e := range was {
			name := e.Name()
			a, _ := os.ReadFile(filepath.Join(fixture, name))
			b, err := os.ReadFile(filepath.Join(fresh, name))
			switch {
			case err != nil:
				t.Error(err)
			case isContainer(name):
				if containerView(t, filepath.Join(fixture, name)) != containerView(t, filepath.Join(fresh, name)) {
					t.Errorf("gob warmed %v: %s: header or payload differs from the fixture's", warm, name)
				}
			case !bytes.Equal(a, b):
				t.Errorf("gob warmed %v: %s: %d bytes written now, %d in the fixture, or they differ", warm, name, len(b), len(a))
			}
		}
	}
}

// TestPreviousFormatRefused: what earlier formats' last commits wrote is
// refused by name and left where it is, byte for byte, BLOBs included,
// with nothing created, quarantined or swept — every directory that
// holds an earlier build's catalog.gob or catalog.gob.bak (format_pr20's
// TBMCATS2 snapshot, format_pr22's, format_pr31's TBMCATS3 with gob
// records, format_pr36's TBMCATS4 beside its checkpoint chain); and the
// journals of record layout 1 (format_pr31's tail) and of gob records
// (format_pr20's, from a directory that never checkpointed, and
// format_pr22's).
func TestPreviousFormatRefused(t *testing.T) {
	// open copies the named files of a fixture — all of them when none is
	// named — into a fresh directory and opens it.
	open := func(fixture string, files ...string) error {
		src := filepath.Join("testdata", fixture)
		if len(files) == 0 {
			entries, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				files = append(files, e.Name())
			}
		}
		dir := t.TempDir()
		was := map[string][]byte{}
		for _, file := range files {
			data, err := os.ReadFile(filepath.Join(src, file))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
				t.Fatal(err)
			}
			was[file] = data
		}
		fs, err := blob.OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		_, err = Open(dir, fs)
		left, _ := os.ReadDir(dir)
		if len(left) != len(was) {
			t.Errorf("%s %v: refusal left %d files, want %d", fixture, files, len(left), len(was))
		}
		for file, data := range was {
			if after, _ := os.ReadFile(filepath.Join(dir, file)); !bytes.Equal(after, data) {
				t.Errorf("%s: refusal changed %s", fixture, file)
			}
		}
		return err
	}
	for _, fixture := range []string{"format_pr20", "format_pr22", "format_pr31", "format_pr36"} {
		err := open(fixture)
		if !errors.Is(err, ErrSnapshotFormat) || errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), "catalog.gob ") {
			t.Errorf("%s: Open = %v, want ErrSnapshotFormat naming catalog.gob", fixture, err)
		}
	}
	// The backup alone is refused by its own name.
	dir := t.TempDir()
	data, err := os.ReadFile("testdata/format_pr36/catalog.gob")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "catalog.gob.bak"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, blob.NewMemStore()); !errors.Is(err, ErrSnapshotFormat) || !strings.Contains(err.Error(), "catalog.gob.bak") {
		t.Errorf("a lone catalog.gob.bak: Open = %v, want ErrSnapshotFormat naming it", err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 1 {
		t.Errorf("refusing a lone catalog.gob.bak left %d files, want 1", len(left))
	}
	for fixture, segment := range map[string]string{"format_pr20": "journal.000001.log", "format_pr22": "journal.000003.log", "format_pr31": "journal.000003.log"} {
		if err := open(fixture, segment); !errors.Is(err, ErrReplay) || !strings.Contains(err.Error(), "not with record layout version 2") {
			t.Errorf("%s journal: Open = %v, want ErrReplay naming the record layout", fixture, err)
		}
	}
}

// TestFollowerCheckpointDeterministic: a snapshot is a function of the
// history it covers, not of the process that wrote it. A follower caught
// up to the primary's seq S by replicated apply, and the primary itself,
// both saved at S, write the same inflated payload byte for byte — head
// included, deleted and collected state, floor and high-water marks too.
func TestFollowerCheckpointDeterministic(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	pdir, fdir := t.TempDir(), t.TempDir()
	store, err := blob.OpenFileStore(pdir)
	must(err)
	defer store.Close()
	opts := []Option{WithVersionRetention(2)}
	primary, err := Open(pdir, store, opts...)
	must(err)
	a, err := primary.Ingest("a", genVideo(4, 101), IngestOptions{})
	must(err)
	b, err := primary.Ingest("b", genVideo(3, 102), IngestOptions{})
	must(err)
	cut, err := primary.SelectDuration(a, "cut", 1, 3)
	must(err)
	mm, err := primary.AddMultimedia("mm", timebase.Millis, []core.ComponentRef{{Object: a}, {Object: cut, Start: 40}}, fixtureAttrs)
	must(err)
	must(primary.AddSync(mm, 0, 1, 10))
	must(primary.AddSync(mm, 1, 0, 20)) // the first sync's version falls to retention
	must(primary.Delete(b))             // collects b's BLOB
	_, err = primary.AddBatch([]BatchItem{
		{Name: "b1", Op: "video-edit", Inputs: []core.ID{a}, Params: derive.EncodeParams(derive.EditParams{Entries: []derive.EditEntry{{Input: 0, From: 0, To: 2}}})},
		{Name: "b2", Op: "video-edit", InputNames: []string{"b1"}, Params: derive.EncodeParams(derive.EditParams{Entries: []derive.EditEntry{{Input: 0, From: 0, To: 1}}})},
	})
	must(err)
	must(primary.CloseJournal())

	follower := New(store, opts...)
	must(follower.OpenJournal(fdir))
	_, err = wal.ReplaySegments(pdir, func(rec []byte) error {
		_, err := follower.ApplyReplicated(rec)
		return err
	})
	must(err)
	if follower.Seq() != primary.Seq() {
		t.Fatalf("follower at seq %d, primary at %d", follower.Seq(), primary.Seq())
	}
	must(primary.Save(pdir))
	must(follower.Save(fdir))
	must(follower.CloseJournal())
	p, f := payloadOf(t, chainFile(t, pdir, 0)), payloadOf(t, chainFile(t, fdir, 0))
	if !bytes.Equal(p, f) {
		t.Errorf("at seq %d the follower's snapshot payload (%d B) differs from the primary's (%d B)", primary.Seq(), len(f), len(p))
	}
	if got, want := catalogDump(follower), catalogDump(primary); got != want {
		t.Errorf("follower\n%s\nprimary\n%s", got, want)
	}
}

// TestCheckpointBytesCounted: tbm_checkpoint_bytes_total carries, per
// mode, exactly the container bytes each counted checkpoint wrote.
func TestCheckpointBytesCounted(t *testing.T) {
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
	clip := savedClip(t, db, dir, "clip", 45)
	if _, err := db.SelectDuration(clip, "late", 0, 2); err != nil {
		t.Fatal(err)
	}
	checkpointDelta(t, db, dir)
	for mode, path := range map[string]string{"full": chainFile(t, dir, 0), "incremental": chainFile(t, dir, 1)} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		labels := `mode="` + mode + `"`
		if n := reg.Counter(telemetry.CheckpointFamily, labels).Load(); n != 1 {
			t.Errorf("%s checkpoints counted = %d, want 1", mode, n)
		}
		if n := reg.Counter(telemetry.CheckpointBytesFamily, labels).Load(); n != fi.Size() {
			t.Errorf("%s checkpoint bytes = %d, file holds %d", mode, n, fi.Size())
		}
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// v2Container frames payload as version 2 of the snapshot container
// wrote it, before chunks were DEFLATE-packed: magic, version 2, the
// payload as it is in chunks of up to DefaultChunkLen, and a trailer
// whose CRC covers the chunk CRCs alone.
func v2Container(payload []byte) []byte {
	out := []byte("TBMSNAP2\x00\x00\x00\x02")
	var crcs []byte
	total := uint64(len(payload))
	for len(payload) > 0 {
		k := min(len(payload), durable.DefaultChunkLen)
		out = durable.AppendFrame(out, nil, payload[:k])
		crcs = append(crcs, out[len(out)-k-4:len(out)-k]...)
		payload = payload[k:]
	}
	out = binary.BigEndian.AppendUint32(out, 0)
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(crcs, crc32.MakeTable(crc32.Castagnoli)))
	return binary.BigEndian.AppendUint64(out, total)
}

// writeV2 writes payload into path as a valid version 2 container.
func writeV2(t testing.TB, path string, payload []byte) {
	t.Helper()
	if err := os.WriteFile(path, v2Container(payload), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeContainer writes payload into path as this build writes a
// container, without the fsyncs of WriteStreamSnapshot.
func writeContainer(t testing.TB, path string, payload []byte) {
	t.Helper()
	var buf bytes.Buffer
	cw := durable.NewChunkWriter(&buf)
	if _, err := cw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestForeignSnapshotFormatRefused: a healthy container whose payload
// is in a format this build does not read is refused as
// ErrSnapshotFormat and left where it is — not called damage, not
// quarantined, no backup taken in its place. Bytes with no container
// around them — the retired v1 frame included — are damage like any
// other: quarantined with the backup used as the MANIFEST's base, a
// broken chain as its delta.
func TestForeignSnapshotFormatRefused(t *testing.T) {
	var oldGob bytes.Buffer
	// The shape of the pre-streaming payload: one gob value.
	type object struct {
		ID   core.ID
		Name string
	}
	if err := gob.NewEncoder(&oldGob).Encode(struct {
		NextID  core.ID
		Seq     uint64
		Objects []object
	}{NextID: 2, Seq: 1, Objects: []object{{ID: 1, Name: "clip"}}}); err != nil {
		t.Fatal(err)
	}
	cats1 := append([]byte("TBMCATS1"), oldGob.Bytes()...)

	for _, tc := range []struct {
		name  string
		write func(t *testing.T, path string)
		want  error
		found string // the payload's first bytes, as the error names them
	}{
		{"TBMCATS1 in a v2 container", func(t *testing.T, p string) { writeV2(t, p, cats1) }, ErrSnapshotFormat, "TBMCATS1"},
		{"TBMCATS1 in a v3 container", func(t *testing.T, p string) { writeContainer(t, p, cats1) }, ErrSnapshotFormat, "TBMCATS1"},
		{"whole-catalog gob in a v1 frame", func(t *testing.T, p string) {
			// magic, version 1, length, payload, CRC-32C over all but the magic
			frame := append([]byte("TBMSNAP\x31"), 0, 0, 0, 1)
			frame = binary.BigEndian.AppendUint64(frame, uint64(oldGob.Len()))
			frame = append(frame, oldGob.Bytes()...)
			frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(frame[8:], crc32.MakeTable(crc32.Castagnoli)))
			if err := os.WriteFile(p, frame, 0o644); err != nil {
				t.Fatal(err)
			}
		}, ErrCorruptSnapshot, ""},
		{"short payload in a v2 container", func(t *testing.T, p string) { writeV2(t, p, []byte("TBM")) }, ErrSnapshotFormat, "TBM"},
		{"bare bytes", func(t *testing.T, p string) {
			if err := os.WriteFile(p, cats1, 0o644); err != nil {
				t.Fatal(err)
			}
		}, ErrCorruptSnapshot, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// As the MANIFEST's base, with a good backup beside it.
			dir, fs := corruptDBSetup(t)
			base := chainFile(t, dir, 0)
			tc.write(t, base)
			db, err := Load(dir, fs)
			switch {
			case tc.want == ErrCorruptSnapshot:
				if err != nil || !db.Recovery().UsedBackup || len(db.Recovery().Quarantined) == 0 {
					t.Fatalf("garbage base: err %v, want a quarantine and the backup", err)
				}
			case !errors.Is(err, ErrSnapshotFormat) || errors.Is(err, ErrCorruptSnapshot):
				t.Fatalf("Load = %v, want ErrSnapshotFormat", err)
			default:
				if !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.found)) {
					t.Errorf("error does not name the bytes found (%q): %v", tc.found, err)
				}
				if _, serr := os.Stat(base); serr != nil {
					t.Errorf("refused file not left in place: %v", serr)
				}
				if _, serr := os.Stat(base + ".corrupt"); serr == nil {
					t.Error("a healthy file was quarantined")
				}
			}

			// As a file of the checkpoint chain.
			dir = t.TempDir()
			cdb := openDB(t, dir)
			clip := savedClip(t, cdb, dir, "clip", 61)
			if _, err := cdb.SelectDuration(clip, "late", 0, 2); err != nil {
				t.Fatal(err)
			}
			checkpointDelta(t, cdb, dir)
			if err := cdb.CloseJournal(); err != nil {
				t.Fatal(err)
			}
			delta := chainFile(t, dir, 1)
			tc.write(t, delta)
			fs2, err := blob.OpenFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer fs2.Close()
			got, err := Load(dir, fs2)
			if tc.want == ErrCorruptSnapshot {
				// An unreadable chain file breaks the chain; recovery goes on
				// with what the segments hold and says so.
				if err != nil || !got.Recovery().CheckpointChainBroken {
					t.Fatalf("garbage chain file: err %v, want a broken-chain recovery", err)
				}
				return
			}
			if !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("Load with a foreign chain file = %v, want ErrSnapshotFormat", err)
			}
			if _, serr := os.Stat(delta); serr != nil {
				t.Errorf("refused chain file not left in place: %v", serr)
			}
		})
	}
}

// TestRecoverLoadMissingBlobUnderDelta: only a checkpoint unlinks a
// BLOB, and only once it covers the delete. With the BLOB file of a
// still-live object removed by hand, opening fails with the store's
// error — when a checkpoint chain and a journal follow the base, and
// when the clip exists only as journal records.
func TestRecoverLoadMissingBlobUnderDelta(t *testing.T) {
	for _, journalOnly := range []bool{false, true} {
		dir := t.TempDir()
		db := openDB(t, dir)
		var clip core.ID
		if journalOnly {
			var err error
			if clip, err = db.Ingest("clip", genVideo(4, 71), IngestOptions{}); err != nil {
				t.Fatal(err)
			}
		} else {
			clip = savedClip(t, db, dir, "clip", 71)
			if _, err := db.SelectDuration(clip, "late", 0, 2); err != nil {
				t.Fatal(err)
			}
			checkpointDelta(t, db, dir)
		}
		if _, err := db.SelectDuration(clip, "later", 0, 2); err != nil {
			t.Fatal(err)
		}
		if err := db.CloseJournal(); err != nil {
			t.Fatal(err)
		}
		obj, err := db.Get(clip)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Store().Delete(obj.Blob); err != nil {
			t.Fatal(err)
		}
		fs, err := blob.OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		if _, err := Open(dir, fs); !errors.Is(err, blob.ErrNotFound) || !strings.Contains(err.Error(), "missing") {
			t.Fatalf("journal only %v: Open over a hand-removed BLOB = %v, want the store's not-found error", journalOnly, err)
		}
		if _, serr := os.Stat(CheckpointFile(dir, 1)); serr != nil && !journalOnly {
			t.Errorf("snapshot quarantined on a store error: %v", serr)
		}
	}
}

// TestFaultSyncRollbackKeepsChainAtRetentionOne: with retention 1 the
// failed revision is the only entry its chain retains. Rolling it back
// must not leave the live object without a chain — the chain tail is
// what a snapshot persists as the live object.
func TestFaultSyncRollbackKeepsChainAtRetentionOne(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db := New(store, WithVersionRetention(1))
	a, err := db.Ingest("a", genVideo(4, 81), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := db.AddMultimedia("mm", timebase.Millis, []core.ComponentRef{{Object: a}, {Object: a, Start: 50}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	attachFaultJournal(t, db, dir, faultfs.NewInjector(faultfs.Rule{Op: "journal.append", Nth: 1}))
	if err := db.AddSync(mm, 0, 1, 10); !errors.Is(err, ErrJournal) {
		t.Fatalf("AddSync with failing journal: %v, want ErrJournal", err)
	}
	if err := db.CurrentView().VerifyVersions(); err != nil {
		t.Fatalf("after rollback: %v", err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, store)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := got.Lookup("mm")
	if err != nil {
		t.Fatalf("object lost across save and load: %v", err)
	}
	if len(obj.Multimedia.Syncs) != 0 {
		t.Errorf("rolled-back sync came back: %+v", obj.Multimedia.Syncs)
	}
}
