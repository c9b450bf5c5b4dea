package wal

import (
	"bytes"
	"testing"
)

// frameBytes builds a valid log image from payloads (test helper for
// corpus seeding).
func frameBytes(payloads ...[]byte) []byte {
	var buf []byte
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	return buf
}

// FuzzFrameDecode throws arbitrary bytes at the frame decoder. The
// invariants: never panic, never hand fn a record that fails its CRC,
// and on a well-formed prefix report exactly the records the prefix
// holds with the tear at the first damaged byte's frame.
func FuzzFrameDecode(f *testing.F) {
	valid := frameBytes([]byte("hello"), []byte(""), bytes.Repeat([]byte{0xAB}, 300))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])     // torn tail mid-payload
	f.Add(valid[:frameHeaderLen-2]) // torn header
	f.Add([]byte{})                 // empty log
	f.Add([]byte("not a journal at all"))
	flipped := append([]byte(nil), valid...)
	flipped[frameHeaderLen+2] ^= 0x40 // corrupt first payload
	f.Add(flipped)
	giant := frameBytes([]byte("x"))
	giant[5] = 0xFF // absurd length field
	f.Add(giant)

	f.Fuzz(func(t *testing.T, data []byte) {
		var decoded [][]byte
		res, err := ReplayFrames(bytes.NewReader(data), func(d []byte) error {
			decoded = append(decoded, append([]byte(nil), d...))
			return nil
		})
		if err != nil {
			t.Fatalf("fn never errors, replay did: %v", err)
		}
		if res.Records != len(decoded) {
			t.Fatalf("res.Records=%d but fn saw %d", res.Records, len(decoded))
		}
		// Every decoded record must round-trip: re-encoding the
		// decoded prefix reproduces the input bytes up to the tear.
		re := frameBytes(decoded...)
		if !bytes.HasPrefix(data, re) {
			t.Fatalf("decoded records do not re-encode to the input prefix")
		}
		if res.Torn && res.TornOffset != int64(len(re)) {
			t.Fatalf("tear at %d, decoded prefix ends at %d", res.TornOffset, len(re))
		}
		if !res.Torn && len(re) != len(data) {
			t.Fatalf("clean end but %d trailing bytes undecoded", len(data)-len(re))
		}
	})
}

// FuzzFrameCorruption mutates one byte of a valid log and asserts the
// CRC (or framing) rejects the damaged record: replay must either
// tear at or before the mutated frame, never deliver altered payload
// bytes as intact.
func FuzzFrameCorruption(f *testing.F) {
	f.Add(0, byte(0x01))
	f.Add(5, byte(0x80))
	f.Add(13, byte(0xFF))
	f.Fuzz(func(t *testing.T, pos int, mask byte) {
		payloads := [][]byte{[]byte("first-record"), []byte("second-record")}
		img := frameBytes(payloads...)
		if mask == 0 {
			return // not a mutation
		}
		pos %= len(img)
		if pos < 0 {
			pos += len(img)
		}
		img[pos] ^= mask

		var decoded [][]byte
		res, _ := ReplayFrames(bytes.NewReader(img), func(d []byte) error {
			decoded = append(decoded, append([]byte(nil), d...))
			return nil
		})
		if !res.Torn {
			t.Fatalf("single-byte corruption at %d not detected", pos)
		}
		// Records before the damaged frame may survive; any delivered
		// record must match the original payload exactly.
		for i, d := range decoded {
			if !bytes.Equal(d, payloads[i]) {
				t.Fatalf("record %d delivered mutated: %q", i, d)
			}
		}
	})
}

// FuzzManifestDecode throws arbitrary bytes at the manifest decoder:
// it must never panic, never allocate past MaxManifestLen, and a
// manifest it accepts must re-encode to an equivalent manifest
// (decode∘encode is the identity on accepted inputs).
func FuzzManifestDecode(f *testing.F) {
	seed, _ := EncodeManifest(&Manifest{CheckpointSeq: 42, Checkpoints: []uint64{1, 3}, OldestSegment: 9})
	f.Add(seed)
	f.Add([]byte{})
	f.Add(manifestMagic[:])
	short := append([]byte(nil), seed...)
	f.Add(short[:len(short)-4]) // truncated payload
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)-2] ^= 0x20 // corrupt payload byte
	f.Add(flipped)
	huge := append([]byte(nil), seed...)
	huge[8], huge[9] = 0xFF, 0xFF // absurd length field
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		re, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest fails re-encode: %v", err)
		}
		m2, err := DecodeManifest(re)
		if err != nil {
			t.Fatalf("re-encoded manifest fails decode: %v", err)
		}
		if m2.CheckpointSeq != m.CheckpointSeq || m2.OldestSegment != m.OldestSegment ||
			len(m2.Checkpoints) != len(m.Checkpoints) {
			t.Fatalf("round trip diverged: %+v vs %+v", m, m2)
		}
	})
}
