package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/durable"
	"timedmedia/internal/interp"
	"timedmedia/internal/media"
	"timedmedia/internal/timebase"
)

// The snapshot payload is what a restart trusts after the container's
// checksums pass, and the container is what stands between the payload
// and a torn write or bit rot. One fuzz target for each side: arbitrary
// payloads inside a valid container, and single-byte damage to a valid
// file.

// streamFixture builds, in dir, a catalog whose files hold every shape
// the record stream carries: the MANIFEST's chain is a base (with an
// older generation beside it as the backup) and a delta over it, and
// each of the two covers object tombstones, a name re-used across a
// delete, a sync revision and an interpretation tombstone — and
// interpretation records of every packing: vjpg frames that are runs
// of one, raw frames that are one contiguous run, and two uniform
// tracks interleaved in one BLOB. The journal is closed; the store
// stays open for the caller.
func streamFixture(tb testing.TB, dir string) *blob.FileStore {
	tb.Helper()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	store, err := blob.OpenFileStore(dir)
	must(err)
	db, err := Open(dir, store)
	must(err)
	a, err := db.Ingest("a", genVideo(4, 91), IngestOptions{})
	must(err)
	b, err := db.Ingest("b", genVideo(4, 92), IngestOptions{})
	must(err)
	_, err = db.Ingest("raw", genVideo(4, 95), IngestOptions{VideoEncoding: media.EncodingRawRGB})
	must(err)
	avID, avBlob, err := store.Create()
	must(err)
	frames, samples := media.RawVideoType(2, 2, timebase.PAL), media.CDAudioType()
	bu := interp.NewBuilder(avID, avBlob).
		AddTrack("v", frames, frames.NewDescriptor(6)).AddTrack("a", samples, samples.NewDescriptor(6))
	for i := int64(0); i < 6; i++ {
		bu.Append("v", make([]byte, 12), i, 1, media.ElementDescriptor{}).Append("a", make([]byte, 4), i, 1, media.ElementDescriptor{})
	}
	av, err := bu.Seal()
	must(err)
	must(db.RegisterInterpretation(av))
	_, err = db.AddNonDerived("av-video", avID, "v", nil)
	must(err)
	_, err = db.AddNonDerived("av-audio", avID, "a", nil)
	must(err)
	mm, err := db.AddMultimedia("mm", timebase.Millis, []core.ComponentRef{{Object: a}, {Object: b, Start: 40}}, nil)
	must(err)
	for i := 0; i < 8; i++ {
		_, err := db.SelectDuration(a, fmt.Sprintf("cut%d", i), 0, 2)
		must(err)
	}
	must(db.Save(dir)) // becomes the backup

	// churn deletes the last reader of a BLOB (object and interpretation
	// tombstones), re-uses its name, and revises mm.
	churn := func(name string, skew int64) {
		id, err := db.Ingest(name, genVideo(3, 93), IngestOptions{})
		must(err)
		must(db.Delete(id))
		_, err = db.Ingest(name, genVideo(3, 94), IngestOptions{})
		must(err)
		must(db.AddSync(mm, 0, 1, skew))
	}
	churn("tmp", 10)
	must(db.Save(dir))
	churn("tmp2", 20)
	checkpointDelta(tb, db, dir)
	must(db.CloseJournal())
	return store
}

// readSnapshotInto streams one chain file into db, which must not be
// shared yet.
func (db *DB) readSnapshotInto(path string) error {
	s, err := openStream(path)
	if err != nil {
		return err
	}
	defer s.Close()
	return db.applyStream(s)
}

// payloadOf returns the payload inside the container at path.
func payloadOf(tb testing.TB, path string) []byte {
	tb.Helper()
	r, err := durable.OpenSnapshotReader(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzCatalogStreamDecode feeds arbitrary bytes, as the payload of a
// valid container, to the stream loader of a populated catalog. It
// must never panic; what it rejects it rejects as ErrCorruptSnapshot
// or ErrSnapshotFormat; and a rejected payload leaves the catalog's
// current view, seq and next ID exactly as they were — applyStream's
// one-epoch-or-nothing promise.
func FuzzCatalogStreamDecode(f *testing.F) {
	dir := f.TempDir()
	store := streamFixture(f, dir)
	defer store.Close()
	base := chainFile(f, dir, 0)
	full := payloadOf(f, base)
	delta := payloadOf(f, chainFile(f, dir, 1))
	// The same files as an earlier build framed them (TBMCATS4).
	plainFull := plainPayload(f, base)
	plainDelta := plainPayload(f, chainFile(f, dir, 1))
	flipped := func(p []byte, at int) []byte {
		q := append([]byte(nil), p...)
		q[at] ^= 0x10
		return q
	}
	head := headBytes(&streamHead{Seq: 9, NextID: 4, NumRecords: 5})
	headOnly := append(binary.AppendUvarint(plainStreamPreamble[:], uint64(len(head))), head...)
	for _, seed := range [][]byte{
		plainFull,
		plainDelta,
		plainFull[:len(plainFull)-3], // torn tails
		plainDelta[:len(plainDelta)-3],
		plainFull[:len(plainFull)/2],
		plainDelta[:len(plainDelta)/2],
		{},
		plainStreamPreamble[:],
		append([]byte("TBMCATS3"), plainFull[8:]...), // an older format's preamble
		[]byte("not a catalog stream"),
		flipped(plainFull, 9),                  // in the head
		flipped(plainDelta, len(plainDelta)/2), // in a record
		flipped(plainFull, len(plainFull)-1),   // in the last record
		headOnly,                               // records promised, none delivered
		append(plainFull[:len(plainFull):len(plainFull)], plainDelta[8:]...), // trailing bytes after the last record
		// The framing written now (TBMCATS5), and the same damage.
		full,
		delta,
		full[:len(full)-3],
		delta[:len(delta)/2],
		catalogStreamPreamble[:],
		append([]byte("TBMCATS5"), plainFull[8:]...), // length framing behind the new preamble
		append([]byte("TBMCATS4"), full[8:]...),      // frames behind the old one
		flipped(full, 9),
		flipped(delta, len(delta)/2),
		flipped(full, len(full)-1),
		append(binary.AppendUvarint(catalogStreamPreamble[:], uint64(len(head))), head...),
		append(full[:len(full):len(full)], delta[8:]...),
	} {
		f.Add(seed)
	}
	// Frames that describe no record: a shared prefix longer than the
	// previous record, a suffix longer than the payload, deltas that wrap
	// a seq or an ID, frames cut mid-field.
	for _, h := range hostileFrames() {
		f.Add(h.payload(streamHead{Seq: 40, NextID: 40}))
	}

	path := filepath.Join(dir, "fuzzed.ckpt")
	f.Fuzz(func(t *testing.T, payload []byte) {
		db := New(store)
		if err := db.readSnapshotInto(base); err != nil {
			t.Fatal(err)
		}
		view, seq, nextID := db.cur.Load(), db.seq, db.nextID
		writeContainer(t, path, payload)
		err := db.readSnapshotInto(path)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrCorruptSnapshot) && !errors.Is(err, ErrSnapshotFormat) {
			t.Fatalf("rejection is neither ErrCorruptSnapshot nor ErrSnapshotFormat: %v", err)
		}
		if db.cur.Load() != view || db.seq != seq || db.nextID != nextID {
			t.Fatalf("rejected payload moved the catalog: seq %d → %d, next ID %v → %v, view changed %v (%v)",
				seq, db.seq, nextID, db.nextID, db.cur.Load() != view, err)
		}
	})
}

// catalogDump renders what queries over db can return: the live
// objects with their sync constraints, and how many objects every
// answerable as_of sees.
func catalogDump(db *DB) string {
	floor := db.CurrentView().VersionFloor()
	return fmt.Sprintf("floor %d\n", floor) + catalogDumpFrom(db, floor)
}

// catalogDumpFrom is catalogDump with the as_of counts from seq from
// on: what two catalogs keeping different amounts of history agree on.
func catalogDumpFrom(db *DB, from uint64) string {
	var sb strings.Builder
	v := db.CurrentView()
	fmt.Fprintf(&sb, "seq %d\n", db.Seq())
	for _, o := range v.Select(func(*core.Object) bool { return true }) {
		fmt.Fprintf(&sb, "%v %v", o, o.Attrs)
		if o.Multimedia != nil {
			fmt.Fprintf(&sb, " %v", o.Multimedia.Syncs)
		}
		sb.WriteByte('\n')
	}
	for seq := from; seq <= db.Seq(); seq++ {
		if av, err := v.AsOf(seq); err == nil {
			fmt.Fprintf(&sb, "as_of %d: %d\n", seq, av.Len())
		}
	}
	return sb.String()
}

// FuzzCatalogStreamCorruption flips one byte anywhere in the chain's
// base, its delta or the MANIFEST. Load must then fail, or say what it
// fell back to (the backup base; a broken checkpoint chain) — it must
// never report a clean recovery of a catalog whose query output
// differs from the one that was saved. A corrupt MANIFEST alone is no
// fallback: the chain rebuilt from the file heads is the saved one.
func FuzzCatalogStreamCorruption(f *testing.F) {
	src := f.TempDir()
	store := streamFixture(f, src)
	defer store.Close()
	clean, err := Load(src, store)
	if err != nil {
		f.Fatal(err)
	}
	want := catalogDump(clean)
	targets := []string{filepath.Base(chainFile(f, src, 0)), filepath.Base(chainFile(f, src, 1)), "MANIFEST"}

	f.Add(0, 0, byte(0x01))   // container magic
	f.Add(0, 21, byte(0x80))  // payload preamble
	f.Add(0, 300, byte(0x04)) // a record
	f.Add(0, -5, byte(0x20))  // stream trailer
	f.Add(1, 14, byte(0xFF))  // first chunk's length
	f.Add(1, 200, byte(0x01)) // a delta record
	f.Add(2, 30, byte(0x02))  // the MANIFEST's payload
	// The record frames sit inside the chunks' DEFLATE data, so the chunk
	// CRC refuses their damage before the framing is read (hostile
	// frames inside a valid container: TestHostileFramesRefused).
	f.Add(0, 24, byte(0x40))  // the base's first frames
	f.Add(1, 22, byte(0x01))  // the delta's first frame
	f.Add(1, -12, byte(0x08)) // the delta's last frames
	f.Fuzz(func(t *testing.T, which, pos int, mask byte) {
		if mask == 0 {
			return // not a mutation
		}
		dir := t.TempDir()
		copyTree(t, src, dir) // BLOBs included: Load resolves them through store, these are inert
		if which %= len(targets); which < 0 {
			which += len(targets)
		}
		path := filepath.Join(dir, targets[which])
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if pos %= len(data); pos < 0 {
			pos += len(data)
		}
		data[pos] ^= mask
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Load(dir, store)
		if err != nil {
			return
		}
		if rec := db.Recovery(); rec.UsedBackup || rec.CheckpointChainBroken {
			return
		}
		if got := catalogDump(db); got != want {
			t.Fatalf("byte %d of %s flipped (mask %02x), Load reported a clean recovery of a different catalog:\n%s\nwant:\n%s",
				pos, targets[which], mask, got, want)
		}
	})
}
