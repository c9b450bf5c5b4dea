package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
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
	payload := bytes.Repeat([]byte("abcdefgh"), 64<<10) // several chunks? no: 512KiB, one chunk
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
// decode.
func TestChunkBitFlipDetected(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChunkWriter(&buf)
	cw.Write(bytes.Repeat([]byte{0x5a}, 4096))
	cw.Close()
	full := buf.Bytes()
	for _, off := range []int{streamHeaderLen + FrameHeaderLen + 100, len(full) - 6, streamHeaderLen + 2} {
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

// TestWriteStreamSnapshotRotatesBackup: the previous generation
// survives as .bak and no tmp file is left behind.
func TestWriteStreamSnapshotRotatesBackup(t *testing.T) {
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
	if got := read(path + ".bak"); got != "one" {
		t.Errorf("backup = %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("tmp file survives: %v", err)
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
