package catalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
)

// Tests of the record framing of a TBMCATS5 payload: the same records
// as TBMCATS4's length framing, byte for byte; a directory an earlier
// build wrote extends its chain in the new framing; and a frame that
// describes no record is refused as damage.

// appendPlain appends rec as stream 4 frames it: a uvarint length and
// the bytes.
func appendPlain(p, rec []byte) []byte {
	return append(binary.AppendUvarint(p, uint64(len(rec))), rec...)
}

// streamRecords reads the head and every record of the chain file at
// path, each record copied.
func streamRecords(tb testing.TB, path string) (streamHead, [][]byte) {
	tb.Helper()
	s, err := openStream(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	var recs [][]byte
	for i := 0; i < s.head.NumRecords; i++ {
		rec, err := s.record()
		if err != nil {
			tb.Fatalf("%s: record %d: %v", path, i, err)
		}
		recs = append(recs, slices.Clone(rec))
	}
	return s.head, recs
}

// plainPayload returns the payload of the chain file at path framed as
// stream 4: what an earlier build wrote for the same capture.
func plainPayload(tb testing.TB, path string) []byte {
	tb.Helper()
	head, recs := streamRecords(tb, path)
	p := appendPlain(plainStreamPreamble[:], headBytes(&head))
	for _, rec := range recs {
		p = appendPlain(p, rec)
	}
	return p
}

// TestFramingsCarryTheSameRecords: one capture, written in the framing
// writeCapture uses and in stream 4's, reads back as the same head and
// the same record sequence byte for byte — the records appendVersion
// and appendInterpVersion lay out — and loads as the same catalog. The
// capture is a whole fixture catalog: object versions and tombstones,
// registrations of every packing, collected BLOBs.
func TestFramingsCarryTheSameRecords(t *testing.T) {
	dir := t.TempDir()
	store := streamFixture(t, dir)
	defer store.Close()
	db, err := Load(dir, store)
	if err != nil {
		t.Fatal(err)
	}
	cur := db.CurrentView()
	cap := capture(diffViews(nil, cur), cur, streamHead{Seq: db.seq, NextID: db.nextID, NextBlob: db.nextBlob}, false)
	var want [][]byte
	for _, x := range cap.entries {
		var rec []byte
		if x.ofInterp {
			rec, err = appendInterpVersion(nil, blob.ID(x.id), x.seq, x.it)
		} else {
			rec, err = appendVersion(nil, core.ID(x.id), x.name, x.seq, x.obj)
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	if len(want) < 20 {
		t.Fatalf("the capture holds %d records; the fixture should give more", len(want))
	}

	framed := filepath.Join(t.TempDir(), "framed.ckpt")
	if _, err := writeCapture(framed, cap); err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(t.TempDir(), "plain.ckpt")
	p := appendPlain(plainStreamPreamble[:], headBytes(&cap.head))
	for _, rec := range want {
		p = appendPlain(p, rec)
	}
	writeContainer(t, plain, p)

	framedPayload := payloadOf(t, framed)
	if !bytes.HasPrefix(framedPayload, []byte("TBMCATS5")) || len(framedPayload) >= len(p) {
		t.Errorf("the framed payload opens with %q and is %d bytes, the plain one %d: want TBMCATS5 and smaller",
			framedPayload[:min(8, len(framedPayload))], len(framedPayload), len(p))
	}
	var dumps []string
	for _, path := range []string{framed, plain} {
		head, recs := streamRecords(t, path)
		if !bytes.Equal(headBytes(&head), headBytes(&cap.head)) {
			t.Errorf("%s: head %+v, want %+v", filepath.Base(path), head, cap.head)
		}
		if len(recs) != len(want) {
			t.Fatalf("%s: %d records, want %d", filepath.Base(path), len(recs), len(want))
		}
		for i := range want {
			if !bytes.Equal(recs[i], want[i]) {
				t.Fatalf("%s: record %d is [% x], want [% x]", filepath.Base(path), i, recs[i], want[i])
			}
		}
		fresh := New(store)
		if err := fresh.readSnapshotInto(path); err != nil {
			t.Fatal(err)
		}
		if err := fresh.relinkAllLocked(); err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, catalogDump(fresh))
	}
	if dumps[0] != dumps[1] {
		t.Errorf("the framings load as different catalogs:\n%s\nand\n%s", dumps[0], dumps[1])
	}
}

// TestMixedChainReopens: testdata/format_pr53 is a TBMCATS4 chain. Its
// next checkpoint is a TBMCATS5 delta on it, and the directory reopens
// from that mixed chain as the catalog it was.
func TestMixedChainReopens(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, "testdata/format_pr53", dir)
	db := openDB(t, dir)
	clip, err := db.Lookup("clip")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SelectDuration(clip.ID, "mixed", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	m := db.Manifest()
	if len(m.Checkpoints) != 3 {
		t.Fatalf("chain %v: the checkpoint was not a delta on the fixture's chain", m.Checkpoints)
	}
	for i, want := range []string{"TBMCATS4", "TBMCATS4", "TBMCATS5"} {
		if got := payloadOf(t, CheckpointFile(dir, m.Checkpoints[i])); !bytes.HasPrefix(got, []byte(want)) {
			t.Errorf("chain file %d opens with %q, want %s", i, got[:min(8, len(got))], want)
		}
	}
	want := catalogDump(db)
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	re := openDB(t, dir)
	defer re.CloseJournal()
	if rec := re.Recovery(); !rec.SnapshotLoaded || rec.UsedBackup || rec.CheckpointChainBroken ||
		rec.CheckpointsApplied != 2 || rec.JournalRecords != 0 || len(rec.Quarantined) != 0 {
		t.Errorf("recovery of the mixed chain = %+v", rec)
	}
	if got := catalogDump(re); got != want {
		t.Errorf("the mixed chain reopens as\n%s\nwant\n%s", got, want)
	}
	if _, err := re.Lookup("mixed"); err != nil || re.Len() != 10 {
		t.Errorf("%d objects, the new cut: %v; want 10 and found", re.Len(), err)
	}
	if err := re.VerifyIndexes(); err != nil {
		t.Error(err)
	}
	if err := re.CurrentView().VerifyVersions(); err != nil {
		t.Error(err)
	}
}

// frameOf is one stream 5 frame with its fields given as they are, not
// as the writer would compute them.
func frameOf(kind byte, dseq, did int64, shared, n uint64, suffix []byte) []byte {
	b := binary.AppendVarint([]byte{recordLayout, kind}, dseq)
	b = binary.AppendVarint(b, did)
	b = binary.AppendUvarint(b, shared)
	return append(binary.AppendUvarint(b, n), suffix...)
}

// hostile is a stream 5 payload's records: the number its head
// promises, the frames that follow, and what the refusal says.
type hostile struct {
	records int
	frames  [][]byte
	why     string
}

// payload lays h out behind head.
func (h hostile) payload(head streamHead) []byte {
	head.NumRecords = h.records
	return slices.Concat(appendPlain(catalogStreamPreamble[:], headBytes(&head)), slices.Concat(h.frames...))
}

// hostileFrames are payloads whose frames describe no record: each must
// be refused as damage. The first frame of most is a valid tombstone of
// object 1 at seq 3, whose body is the name "x".
func hostileFrames() map[string]hostile {
	const del = 6 // opDelete's kind code
	tomb := frameOf(del, 3, 1, 0, 2, []byte{1, 'x'})
	long := frameOf(del, 300, 1, 0, 2, []byte{1, 'y'}) // Δseq of two bytes
	after := func(why string, frames ...[]byte) hostile {
		return hostile{1 + len(frames), append([][]byte{tomb}, frames...), why}
	}
	const wrap, cut = "wrap", "EOF"
	return map[string]hostile{
		"shared longer than the previous record": after("shares 3 bytes", frameOf(del, 1, 1, 3, 0, nil)),
		"shared with no previous record":         {1, [][]byte{frameOf(del, 3, 1, 1, 1, []byte{'x'})}, "shares 1 bytes"},
		"suffix longer than the bytes left":      after(cut, frameOf(del, 1, 1, 0, 1<<40, []byte("xyz"))),
		"Δseq below zero":                        {1, [][]byte{frameOf(del, -1, 1, 0, 2, []byte{1, 'x'})}, wrap},
		"ΔID below zero":                         after(wrap, frameOf(del, 1, -2, 0, 2, []byte{1, 'x'})),
		"Δseq past 2^64":                         after(wrap, frameOf(del, math.MaxInt64, 0, 2, 0, nil), frameOf(del, math.MaxInt64, 0, 2, 0, nil)),
		"ΔID past 2^64": after(wrap, frameOf(del, 1, math.MaxInt64, 2, 0, nil), frameOf(del, 1, math.MaxInt64, 2, 0, nil),
			frameOf(del, 1, 1, 2, 0, nil)),
		"cut after the layout byte":             after(cut, long[:1]),
		"cut after the kind byte":               after(cut, long[:2]),
		"cut inside Δseq":                       after(cut, long[:3]),
		"cut before the suffix":                 after(cut, long[:len(long)-2]),
		"cut inside the suffix":                 after(cut, long[:len(long)-1]),
		"a valid frame, then none":              {2, [][]byte{tomb}, "EOF"},
		"a frame rebuilt into a refused record": {1, [][]byte{append([]byte{1}, tomb[1:]...)}, "record layout version"},
	}
}

// TestHostileFramesRefused: every hostile frame is ErrCorruptSnapshot,
// never a panic, and a claimed suffix length allocates only with the
// bytes that arrive. As the delta of a chain, inside a valid container,
// it is set aside by Open, which reports the chain broken.
func TestHostileFramesRefused(t *testing.T) {
	dir := t.TempDir()
	store := streamFixture(t, dir)
	defer store.Close()
	path := filepath.Join(t.TempDir(), "hostile.ckpt")
	// What precedes each break is well formed: the tombstone alone reads.
	writeContainer(t, path, hostile{1, [][]byte{frameOf(6, 3, 1, 0, 2, []byte{1, 'x'})}, ""}.payload(streamHead{Seq: 40}))
	if err := New(store).readSnapshotInto(path); err != nil {
		t.Fatalf("the valid tombstone frame is refused: %v", err)
	}
	base, _ := streamRecords(t, chainFile(t, dir, 0))
	for name, h := range hostileFrames() {
		t.Run(name, func(t *testing.T) {
			payload := h.payload(streamHead{Seq: 40, NextID: 40})
			writeContainer(t, path, payload)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := New(store).readSnapshotInto(path)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), h.why) {
				t.Fatalf("read = %v, want ErrCorruptSnapshot saying %q", err, h.why)
			}
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 4<<20 {
				t.Errorf("refusing %d payload bytes allocated %d bytes", len(payload), grown)
			}

			// The same frames as the delta on the fixture's base.
			copied := t.TempDir()
			copyTree(t, dir, copied)
			delta := chainFile(t, copied, 1)
			writeContainer(t, delta, h.payload(streamHead{FromSeq: base.Seq, Seq: base.Seq + 100, NextID: base.NextID, NextBlob: base.NextBlob}))
			cstore, err := blob.OpenFileStore(copied)
			if err != nil {
				t.Fatal(err)
			}
			defer cstore.Close()
			db, err := Open(copied, cstore)
			if err != nil {
				t.Fatal(err)
			}
			defer db.CloseJournal()
			if rec := db.Recovery(); !rec.CheckpointChainBroken || len(rec.Quarantined) != 1 {
				t.Errorf("recovery over the hostile delta = %+v, want the chain broken and the delta quarantined", rec)
			}
			if _, err := os.Stat(delta); err == nil {
				t.Error("the hostile delta is still in place")
			}
		})
	}
}
