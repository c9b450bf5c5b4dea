package durable

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// container frames payload through a ChunkWriter with the given chunk
// size.
func container(payload []byte, chunkLen int) []byte {
	var buf bytes.Buffer
	cw := newChunkWriter(&buf, chunkLen)
	cw.Write(payload)
	cw.Close()
	return buf.Bytes()
}

// v2Container frames payload as version 2 wrote it: chunks that store
// the payload as it is, and a trailer checksum over the chunk CRCs
// alone.
func v2Container(payload []byte, chunkLen int) []byte {
	out := binary.BigEndian.AppendUint32(streamMagic[:8:8], rawStreamVersion)
	var sum uint32
	total := uint64(len(payload))
	for len(payload) > 0 {
		k := min(len(payload), chunkLen)
		out = AppendFrame(out, nil, payload[:k])
		sum = chainCRC(sum, crc32.Checksum(payload[:k], castagnoli))
		payload = payload[k:]
	}
	return appendTrailer(out, sum, total)
}

// deflate packs chunks copies of piece into one raw DEFLATE stream at
// level: one version 3 chunk's stored bytes.
func deflate(level int, chunks int, piece []byte) []byte {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, level)
	if err != nil {
		panic(err)
	}
	for i := 0; i < chunks; i++ {
		zw.Write(piece)
	}
	zw.Close()
	return buf.Bytes()
}

// bestSpeedContainer frames each piece as one chunk deflated at
// BestSpeed, the level every directory written before the default
// level holds.
func bestSpeedContainer(pieces ...[]byte) []byte {
	var total uint64
	stored := make([][]byte, len(pieces))
	for i, p := range pieces {
		total += uint64(len(p))
		stored[i] = deflate(flate.BestSpeed, 1, p)
	}
	return v3Image(total, stored...)
}

// v3Image frames stored chunks as they are in a version 3 container
// with valid CRCs and a trailer claiming total payload bytes.
func v3Image(total uint64, stored ...[]byte) []byte {
	out := append([]byte(nil), streamHeader...)
	sum := crc32.Checksum(streamHeader, castagnoli)
	for _, s := range stored {
		out = AppendFrame(out, nil, s)
		sum = chainCRC(sum, crc32.Checksum(s, castagnoli))
	}
	return appendTrailer(out, sum, total)
}

func appendTrailer(out []byte, sum uint32, total uint64) []byte {
	out = binary.BigEndian.AppendUint32(out, 0)
	out = binary.BigEndian.AppendUint32(out, sum)
	return binary.BigEndian.AppendUint64(out, total)
}

// decodeContainer reads data as a container to its end, keeping the
// payload when keep is set and draining it otherwise.
func decodeContainer(data []byte, keep bool) ([]byte, error) {
	cr, err := NewChunkReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if keep {
		return io.ReadAll(cr)
	}
	_, err = io.Copy(io.Discard, cr)
	return nil, err
}

// FuzzSnapshotDecode throws arbitrary bytes at the snapshot container
// decoder: it must never panic, every refusal must be ErrCorrupt,
// draining a container allocates at most 2 MiB plus a multiple of its
// length — the inflate buffer is one chunk, whatever a chunk inflates
// to — and whenever it accepts a container the payload must survive
// re-framing.
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
	f.Add(container(bytes.Repeat([]byte("catalog "), 40000), 100000)) // several chunks that deflate
	f.Add(v2Container([]byte("snapshot payload"), 5))                 // version 2, several chunks
	f.Add(v2Container(nil, DefaultChunkLen))                          // version 2, empty
	versionFlipped := append([]byte(nil), valid...)
	versionFlipped[11] ^= 0x01 // version 3 read as version 2
	f.Add(versionFlipped)
	f.Add(container(make([]byte, DefaultChunkLen+1), DefaultChunkLen+1)) // one byte past the bound
	f.Add(v3Image(3, []byte("not deflate")))
	// Chunks deflated at BestSpeed, as earlier builds wrote them: the
	// seeds above are written at chunkLevel, so the two cover both.
	f.Add(bestSpeedContainer([]byte("snapshot payload")))
	f.Add(bestSpeedContainer(bytes.Repeat([]byte("catalog "), 5000), []byte("snapshot payload"), bytes.Repeat([]byte("run "), 3000)))

	f.Fuzz(func(t *testing.T, data []byte) {
		bound := 2<<20 + (frameGrowth+2)*uint64(len(data))
		if n := allocBytes(bound, func() { decodeContainer(data, false) }); n > bound {
			t.Fatalf("draining %d bytes allocated %d", len(data), n)
		}
		payload, err := decodeContainer(data, true)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		again, err := decodeContainer(container(payload, DefaultChunkLen), true)
		if err != nil {
			t.Fatalf("accepted payload does not re-frame: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatal("accepted payload does not round-trip")
		}
	})
}

// FuzzSnapshotCorruption flips one byte anywhere in a valid container —
// magic, version, a chunk header, stored bytes or trailer — and asserts
// the decoder rejects it: no single-byte corruption may yield a
// successful decode. A version flip included: 3 read as 2 is damage,
// because the version 3 trailer checksum covers the header.
func FuzzSnapshotCorruption(f *testing.F) {
	f.Add(0, byte(0x01))
	f.Add(12, byte(0xFF))
	f.Add(25, byte(0x80))
	f.Add(11, byte(0x01))
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
		if _, err := decodeContainer(img, false); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("single-byte corruption at %d: err = %v, want ErrCorrupt", pos, err)
		}
	})
}
