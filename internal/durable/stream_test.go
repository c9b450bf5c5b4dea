package durable

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// roundTrip writes payload through a ChunkWriter and reads it back
// through a ChunkReader, returning the decoded bytes.
func roundTrip(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := NewChunkWriter(&buf)
	if _, err := cw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	cr, err := NewChunkReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(cr)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestChunkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 100, DefaultChunkLen - 1, DefaultChunkLen, DefaultChunkLen + 1, 3*DefaultChunkLen + 7} {
		payload := make([]byte, n)
		rng.Read(payload)
		if got := roundTrip(t, payload); !bytes.Equal(got, payload) {
			t.Errorf("n=%d: round trip mismatch (%d bytes back)", n, len(got))
		}
	}
}

func TestChunkWriterManySmallWrites(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChunkWriter(&buf)
	var want []byte
	for i := 0; i < 10000; i++ {
		b := []byte{byte(i), byte(i >> 8), byte(i * 7)}
		want = append(want, b...)
		if _, err := cw.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	cr, err := NewChunkReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(cr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("small-write stream mismatch")
	}
}

// TestChunkTruncationDetected: a stream cut anywhere before its
// trailer must fail with ErrCorrupt, never yield a clean EOF.
func TestChunkTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChunkWriter(&buf)
	payload := bytes.Repeat([]byte("abcdefgh"), 64<<10) // 512 KiB, one chunk
	cw.Write(payload)
	cw.Close()
	full := buf.Bytes()
	for _, cut := range []int{len(full) - 1, len(full) - 8, len(full) / 2, streamHeaderLen + 3} {
		cr, err := NewChunkReader(bytes.NewReader(full[:cut]))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("cut=%d: header err = %v", cut, err)
			}
			continue
		}
		if _, err := io.ReadAll(cr); !errors.Is(err, ErrCorrupt) {
			t.Errorf("cut=%d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

// TestChunkBitFlipDetected: flipping any byte of the container fails
// decode — in the stored bytes, the trailer, the first chunk's length
// and the version field.
func TestChunkBitFlipDetected(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChunkWriter(&buf)
	payload := make([]byte, 4096) // random, so the stored chunk is about as long
	rand.New(rand.NewSource(7)).Read(payload)
	cw.Write(payload)
	cw.Close()
	full := buf.Bytes()
	if len(full) < streamHeaderLen+FrameHeaderLen+4096 {
		t.Fatalf("container of 4096 random bytes is %d bytes", len(full))
	}
	for _, off := range []int{streamHeaderLen + FrameHeaderLen + 100, len(full) - 6, streamHeaderLen + 2, 11} {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x10
		cr, err := NewChunkReader(bytes.NewReader(mut))
		if err != nil {
			continue // header corruption: also detected
		}
		if _, err := io.ReadAll(cr); err == nil {
			t.Errorf("off=%d: bit flip not detected", off)
		}
	}
}

func TestWriteStreamSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	payload := bytes.Repeat([]byte("streaming"), 300000) // ~2.6 MiB, multiple chunks
	err := WriteStreamSnapshot(path, func(w io.Writer) error {
		// Stream in uneven pieces.
		for off := 0; off < len(payload); off += 70001 {
			end := off + 70001
			if end > len(payload) {
				end = len(payload)
			}
			if _, err := w.Write(payload[off:end]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenSnapshotReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("stream snapshot mismatch")
	}
}

// TestWriteStreamSnapshotReplaces: the new generation replaces the
// previous one whole, and neither a .bak nor a tmp file is left behind.
func TestWriteStreamSnapshotReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	gen := func(tag string) {
		if err := WriteStreamSnapshot(path, func(w io.Writer) error {
			_, err := w.Write([]byte(tag))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	gen("one")
	gen("two")
	read := func(p string) string {
		r, err := OpenSnapshotReader(p)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		b, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got := read(path); got != "two" {
		t.Errorf("primary = %q", got)
	}
	for _, left := range []string{".bak", ".tmp"} {
		if _, err := os.Stat(path + left); !os.IsNotExist(err) {
			t.Errorf("%s file beside the snapshot: %v", left, err)
		}
	}
}

// v1Frame builds the retired first-generation frame around payload —
// magic, version 1, length, payload, one CRC over the lot — as builds
// before the chunked container wrote it.
func v1Frame(payload []byte) []byte {
	out := append([]byte("TBMSNAP\x31"), 0, 0, 0, 1)
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(out[8:], castagnoli))
}

// TestOpenSnapshotReaderLegacyFormats: the two retired generations — an
// intact v1 frame and a bare unframed file — are refused as ErrCorrupt
// like any other file that does not open with the container magic.
func TestOpenSnapshotReaderLegacyFormats(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("payload bytes from an older build")
	for name, data := range map[string][]byte{
		"v1":    v1Frame(payload),
		"bare":  payload,
		"short": []byte("TBM"),
		"empty": nil,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := OpenSnapshotReader(path); !errors.Is(err, ErrCorrupt) {
			if err == nil {
				r.Close()
			}
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestChunkWriterDeflates: the writer's chunks are DEFLATE-packed — a
// compressible payload takes a fraction of its length on disk, one
// chunk per DefaultChunkLen payload bytes — and the trailer counts
// payload bytes, not stored ones.
func TestChunkWriterDeflates(t *testing.T) {
	payload := bytes.Repeat([]byte("version record "), (3*DefaultChunkLen+7)/15)
	img := container(payload, DefaultChunkLen)
	if v := binary.BigEndian.Uint32(img[8:]); v != StreamVersion || StreamVersion != 3 {
		t.Fatalf("container version %d, want 3", v)
	}
	if len(img) > len(payload)/20 {
		t.Errorf("%d payload bytes stored in %d", len(payload), len(img))
	}
	chunks, rest := 0, img[streamHeaderLen:]
	for binary.BigEndian.Uint32(rest) != 0 { // up to the trailer
		_, after, err := DecodeFrame(rest, MaxChunkLen)
		if err != nil {
			t.Fatal(err)
		}
		chunks, rest = chunks+1, after
	}
	if want := (len(payload) + DefaultChunkLen - 1) / DefaultChunkLen; chunks != want {
		t.Errorf("%d chunks, want %d", chunks, want)
	}
	if total := binary.BigEndian.Uint64(rest[FrameHeaderLen:]); total != uint64(len(payload)) {
		t.Errorf("trailer total %d, payload %d", total, len(payload))
	}
	if got, err := decodeContainer(img, true); err != nil || !bytes.Equal(got, payload) {
		t.Errorf("round trip: %d bytes, %v", len(got), err)
	}
}

// TestChunkReaderReadsVersion2: containers written before chunks were
// packed — the payload stored as it is — still read, and a version 2
// file whose version field flips to 3 is damage.
func TestChunkReaderReadsVersion2(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 100, DefaultChunkLen + 1} {
		payload := make([]byte, n)
		rng.Read(payload)
		img := v2Container(payload, DefaultChunkLen)
		if got, err := decodeContainer(img, true); err != nil || !bytes.Equal(got, payload) {
			t.Errorf("n=%d: %d bytes back, %v", n, len(got), err)
		}
		img[11] ^= 0x01
		if _, err := decodeContainer(img, false); !errors.Is(err, ErrCorrupt) {
			t.Errorf("n=%d: version 2 flipped to 3: err = %v, want ErrCorrupt", n, err)
		}
	}
}

// TestChunkInflateRefused: a version 3 chunk whose CRCs all verify is
// still refused when its stored bytes are not exactly one DEFLATE
// stream of at most DefaultChunkLen payload bytes. A bomb — ~64 KiB of
// DEFLATE that inflate to 64 MiB of zeros — is refused after one
// chunk's worth, allocating no more than 2 MiB.
func TestChunkInflateRefused(t *testing.T) {
	deflate := func(level int, chunks int, piece []byte) []byte {
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, level)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < chunks; i++ {
			zw.Write(piece)
		}
		zw.Close()
		return buf.Bytes()
	}
	bomb := deflate(flate.BestCompression, 64, make([]byte, 1<<20))
	if len(bomb) < 32<<10 || len(bomb) > 128<<10 {
		t.Fatalf("64 MiB of zeros deflate to %d bytes", len(bomb))
	}
	word := deflate(chunkLevel, 1, []byte("payload"))
	for _, c := range []struct {
		name string
		img  []byte
	}{
		{"bomb", v3Image(64<<20, bomb)},
		{"one byte past the bound", v3Image(DefaultChunkLen+1, deflate(chunkLevel, 1, make([]byte, DefaultChunkLen+1)))},
		{"not DEFLATE", v3Image(7, []byte("payload"))},
		{"torn DEFLATE stream", v3Image(7, word[:len(word)-2])},
		{"bytes after the stream", v3Image(7, append(append([]byte(nil), word...), 0))},
	} {
		if _, err := decodeContainer(c.img, false); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
	}
	const limit = 2 << 20
	img := v3Image(64<<20, bomb)
	if n := allocBytes(limit, func() { decodeContainer(img, false) }); n > limit {
		t.Errorf("the bomb allocated %d bytes", n)
	}
	if got, err := decodeContainer(v3Image(7, word), true); err != nil || string(got) != "payload" {
		t.Errorf("the well-formed chunk: %q, %v", got, err)
	}
}

// failWriter accepts n bytes, then fails every write.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestChunkWriterStickyError: a write failure on the underlying writer
// — at a chunk boundary or at the trailer — is returned, and returned
// again by every later call.
func TestChunkWriterStickyError(t *testing.T) {
	payload := make([]byte, 40)
	rand.New(rand.NewSource(3)).Read(payload)
	cw := newChunkWriter(&failWriter{}, 16)
	if _, err := cw.Write(payload); err == nil {
		t.Fatal("a chunk flushed to a failing writer")
	}
	if _, err := cw.Write([]byte("x")); err == nil {
		t.Error("write after a failure succeeded")
	}
	if err := cw.Close(); err == nil {
		t.Error("close after a failure succeeded")
	}
	cw = NewChunkWriter(&failWriter{})
	if _, err := cw.Write(payload); err != nil {
		t.Fatal(err) // buffered: nothing reaches the writer yet
	}
	if err := cw.Close(); err == nil || cw.Close() == nil {
		t.Error("close to a failing writer succeeded")
	}
	// Room for the chunk, not the trailer.
	cw = NewChunkWriter(&failWriter{n: len(container([]byte("abc"), DefaultChunkLen)) - 1})
	cw.Write([]byte("abc"))
	if err := cw.Close(); err == nil {
		t.Error("trailer written to a failing writer")
	}
	if err := cw.Close(); err == nil {
		t.Error("second close succeeded")
	}
}

// errReader fails every read with a non-EOF error.
type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("EIO") }

// TestOpenSnapshotReaderErrors: an I/O error under the header is
// passed on, not called damage, and a missing file is fs.ErrNotExist.
func TestOpenSnapshotReaderErrors(t *testing.T) {
	if _, err := NewChunkReader(errReader{}); err == nil || errors.Is(err, ErrCorrupt) {
		t.Errorf("I/O error under the header: %v", err)
	}
	if _, err := OpenSnapshotReader(filepath.Join(t.TempDir(), "none")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: %v", err)
	}
}

// TestChunkVersionFlipIsDamage: flipping bit 0 of the version turns a
// version 3 container into a version 2 one whose chunk frames all
// verify. Where the stored bytes are as many as the payload bytes, the
// trailer's total matches too — random bytes, then zeros until it does
// — and only the header under the trailer checksum tells the flip from
// a healthy version 2 file that opens with DEFLATE bytes.
func TestChunkVersionFlipIsDamage(t *testing.T) {
	head := make([]byte, 64)
	rand.New(rand.NewSource(11)).Read(head)
	for zeros := 0; zeros < 4096; zeros++ {
		payload := append(head, make([]byte, zeros)...)
		img := container(payload, DefaultChunkLen)
		if stored := len(img) - streamHeaderLen - 2*FrameHeaderLen - 8; stored != len(payload) {
			continue
		}
		img[11] ^= 0x01
		if _, err := decodeContainer(img, false); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%d payload bytes stored in as many, version flipped to 2: err = %v, want ErrCorrupt", len(payload), err)
		}
		return
	}
	t.Fatal("no payload stored in exactly its length")
}
