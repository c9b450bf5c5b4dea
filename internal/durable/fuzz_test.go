package durable

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// container frames payload through a ChunkWriter with the given chunk
// size.
func container(payload []byte, chunkLen int) []byte {
	var buf bytes.Buffer
	cw := &ChunkWriter{w: &buf, buf: make([]byte, 0, chunkLen)}
	cw.Write(payload)
	cw.Close()
	return buf.Bytes()
}

// FuzzSnapshotDecode throws arbitrary bytes at the snapshot container
// decoder: it must never panic, every refusal must be ErrCorrupt, and
// whenever it accepts a container the payload must survive re-framing.
func FuzzSnapshotDecode(f *testing.F) {
	valid := container([]byte("snapshot payload"), DefaultChunkLen)
	f.Add(valid)
	f.Add(container(nil, DefaultChunkLen))
	f.Add(container([]byte("snapshot payload"), 5)) // several chunks
	f.Add(valid[:len(valid)-2])                     // truncated trailer
	f.Add(valid[:streamHeaderLen-3])                // truncated header
	f.Add([]byte("gob-era snapshot without framing"))
	flipped := append([]byte(nil), valid...)
	flipped[streamHeaderLen+FrameHeaderLen+1] ^= 0x10 // bit-flipped payload
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		cr, err := NewChunkReader(bytes.NewReader(data))
		var payload []byte
		if err == nil {
			payload, err = io.ReadAll(cr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		cr, err = NewChunkReader(bytes.NewReader(container(payload, DefaultChunkLen)))
		if err != nil {
			t.Fatalf("accepted payload does not re-frame: %v", err)
		}
		if again, err := io.ReadAll(cr); err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload does not round-trip: %v", err)
		}
	})
}

// FuzzSnapshotCorruption flips one byte anywhere in a valid container —
// magic, version, a chunk header, payload or trailer — and asserts the
// decoder rejects it: no single-byte corruption may yield a successful
// decode.
func FuzzSnapshotCorruption(f *testing.F) {
	f.Add(0, byte(0x01))
	f.Add(12, byte(0xFF))
	f.Add(25, byte(0x80))
	f.Fuzz(func(t *testing.T, pos int, mask byte) {
		if mask == 0 {
			return // identity, not a corruption
		}
		img := container([]byte("the catalog's version records, gob encoded"), 16)
		pos %= len(img)
		if pos < 0 {
			pos += len(img)
		}
		img[pos] ^= mask
		cr, err := NewChunkReader(bytes.NewReader(img))
		if err == nil {
			_, err = io.ReadAll(cr)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("single-byte corruption at %d: err = %v, want ErrCorrupt", pos, err)
		}
	})
}
