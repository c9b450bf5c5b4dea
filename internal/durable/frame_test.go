package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// The five formats' prefix lengths and bounds: TBMSNAP2 chunks and
// TBMTRC1 frames (no prefix, 64 MiB), WAL1 (4, 64 MiB), TBMMANI1 (8,
// 16 MiB), RPF1 (21, 64 MiB).
var formats = []struct {
	prefix int
	max    uint32
}{{0, 64 << 20}, {4, 64 << 20}, {8, 16 << 20}, {21, 64 << 20}}

// readFrame decodes one frame with the reader form.
func readFrame(data []byte, prefix int, max uint32) (payload []byte, consumed int, err error) {
	r := bytes.NewReader(data)
	hdr := make([]byte, prefix+FrameHeaderLen)
	if err = ReadFrameHeader(r, hdr); err == nil {
		payload, err = ReadFramePayload(r, hdr, max, nil)
	}
	return payload, len(data) - r.Len(), err
}

// outcome names the class of a decode error.
func outcome(err error) string {
	for _, c := range []struct {
		err  error
		name string
	}{{nil, "ok"}, {io.EOF, "eof"}, {ErrFrameTorn, "torn"}, {ErrFrameTooLong, "too long"}, {ErrFrameCRC, "crc"}} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return "other: " + err.Error()
}

// TestFrameDecodeOutcomes: both decoder forms tell a clean end, a torn
// header, a torn payload, a length over the bound and a CRC mismatch
// apart, behind every format's prefix.
func TestFrameDecodeOutcomes(t *testing.T) {
	for _, f := range formats {
		prefix := bytes.Repeat([]byte{'P'}, f.prefix)
		good := AppendFrame(nil, prefix, []byte("payload"))
		long := AppendFrame(nil, prefix, nil)
		binary.BigEndian.PutUint32(long[f.prefix:], f.max+1)
		bad := bytes.Clone(good)
		bad[len(bad)-1] ^= 1
		for _, c := range []struct {
			name, data string
			want       string
		}{
			{"good", string(good), "ok"},
			{"empty", "", "eof"},
			{"torn header", string(good[:f.prefix+FrameHeaderLen-1]), "torn"},
			{"torn payload", string(good[:len(good)-1]), "torn"},
			{"too long", string(long), "too long"},
			{"crc", string(bad), "crc"},
		} {
			payload, n, err := readFrame([]byte(c.data), f.prefix, f.max)
			if got := outcome(err); got != c.want {
				t.Errorf("prefix %d, %s: reader form %s, want %s", f.prefix, c.name, got, c.want)
			}
			if c.want == "ok" && (string(payload) != "payload" || n != len(good)) {
				t.Errorf("prefix %d: reader form read %q in %d bytes", f.prefix, payload, n)
			}
			if len(c.data) < f.prefix {
				continue // the caller's prefix check comes first
			}
			payload, rest, err := DecodeFrame([]byte(c.data[f.prefix:]), f.max)
			if got := outcome(err); got != c.want {
				t.Errorf("prefix %d, %s: slice form %s, want %s", f.prefix, c.name, got, c.want)
			}
			if c.want == "ok" && (string(payload) != "payload" || len(rest) != 0) {
				t.Errorf("prefix %d: slice form %q, %d bytes left", f.prefix, payload, len(rest))
			}
			if c.want == "crc" && len(rest) != 0 {
				t.Errorf("prefix %d: a damaged last frame leaves %d bytes after it", f.prefix, len(rest))
			}
		}
	}
}

// TestWriteFrameMatchesAppendFrame: the two encoders write the same
// bytes, and WriteFrame returns the CRC it wrote.
func TestWriteFrameMatchesAppendFrame(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte{7}, 70000)} {
		var buf bytes.Buffer
		crc, err := WriteFrame(&buf, []byte("RPF1"), payload)
		if err != nil {
			t.Fatal(err)
		}
		want := AppendFrame([]byte("old"), []byte("RPF1"), payload)[3:]
		if !bytes.Equal(buf.Bytes(), want) || crc != binary.BigEndian.Uint32(want[8:]) {
			t.Errorf("%d-byte payload: WriteFrame and AppendFrame disagree", len(payload))
		}
	}
}

// TestReadFramePayloadReusesBuffer: a payload that fits the caller's
// buffer lands in it; a longer one does not touch it.
func TestReadFramePayloadReusesBuffer(t *testing.T) {
	frame := AppendFrame(nil, nil, []byte("abc"))
	buf := make([]byte, 0, 16)
	payload, _, err := readFrameInto(frame, buf)
	if err != nil || string(payload) != "abc" || &payload[0] != &buf[:1][0] {
		t.Errorf("fitting payload: %q, %v, reused=%v", payload, err, err == nil && &payload[0] == &buf[:1][0])
	}
	big := AppendFrame(nil, nil, bytes.Repeat([]byte{1}, 200<<10))
	payload, _, err = readFrameInto(big, buf)
	if err != nil || len(payload) != 200<<10 || cap(payload) != 200<<10 {
		t.Errorf("large payload: %d bytes, cap %d, %v", len(payload), cap(payload), err)
	}
}

func readFrameInto(data, buf []byte) ([]byte, int, error) {
	r := bytes.NewReader(data)
	hdr := make([]byte, FrameHeaderLen)
	if err := ReadFrameHeader(r, hdr); err != nil {
		return nil, 0, err
	}
	payload, err := ReadFramePayload(r, hdr, math.MaxUint32, buf)
	return payload, len(data) - r.Len(), err
}

// allocBytes reports the fewest bytes f allocates over up to three
// tries (a background allocation can land in any one window; it will
// not land in all three).
func allocBytes(bound uint64, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for try := 0; try < 3 && least > bound; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzFrameDecode throws arbitrary bytes at both decoder forms behind
// each format's prefix length and bound. Neither panics; the reader
// allocates at most a constant plus a multiple of the input's length,
// whatever length a header claims; the two forms agree; and an accepted
// frame re-encodes to exactly the bytes it was read from.
func FuzzFrameDecode(f *testing.F) {
	for i, ff := range formats {
		prefix := bytes.Repeat([]byte{'P'}, ff.prefix)
		valid := AppendFrame(nil, prefix, []byte("frame payload"))
		f.Add(valid, uint8(i))
		f.Add(valid[:len(valid)-3], uint8(i)) // torn payload
		f.Add(valid[:ff.prefix+5], uint8(i))  // torn header
		hostile := AppendFrame(nil, prefix, nil)
		binary.BigEndian.PutUint32(hostile[ff.prefix:], ff.max) // the bound, and no payload
		f.Add(hostile, uint8(i))
	}
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, format uint8) {
		ff := formats[int(format)%len(formats)]
		bound := uint64(frameStep) + 4096 + (frameGrowth+2)*uint64(len(data))
		if n := allocBytes(bound, func() { readFrame(data, ff.prefix, ff.max) }); n > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		payload, n, err := readFrame(data, ff.prefix, ff.max)
		if err == io.EOF && len(data) != 0 {
			t.Fatalf("clean end reported on %d bytes", len(data))
		}
		if len(data) > ff.prefix {
			sp, rest, serr := DecodeFrame(data[ff.prefix:], ff.max)
			if outcome(serr) != outcome(err) || err == nil && (!bytes.Equal(sp, payload) || len(rest) != len(data)-n) {
				t.Fatalf("reader form %v, slice form %v", err, serr)
			}
		}
		if err != nil {
			return
		}
		if re := AppendFrame(nil, data[:ff.prefix], payload); !bytes.Equal(re, data[:n]) {
			t.Fatalf("accepted frame re-encodes to different bytes")
		}
	})
}

// FuzzFrameCorruption flips one byte in the length, CRC or payload of
// a valid frame behind each format's prefix: both decoder forms must
// refuse it.
func FuzzFrameCorruption(f *testing.F) {
	f.Add([]byte("frame payload"), uint8(0), 0, byte(0x01))
	f.Add([]byte("frame payload"), uint8(1), 5, byte(0x80))
	f.Add([]byte{}, uint8(2), 7, byte(0xFF))
	f.Add([]byte("x"), uint8(3), 8, byte(0x10))
	f.Fuzz(func(t *testing.T, payload []byte, format uint8, pos int, mask byte) {
		ff := formats[int(format)%len(formats)]
		if mask == 0 || len(payload) > 1<<16 {
			return
		}
		img := AppendFrame(nil, bytes.Repeat([]byte{'P'}, ff.prefix), payload)
		span := len(img) - ff.prefix
		pos %= span
		if pos < 0 {
			pos += span
		}
		img[ff.prefix+pos] ^= mask
		if _, _, err := readFrame(img, ff.prefix, ff.max); err == nil {
			t.Fatalf("flip at frame byte %d accepted by the reader form", pos)
		}
		if _, _, err := DecodeFrame(img[ff.prefix:], ff.max); err == nil {
			t.Fatalf("flip at frame byte %d accepted by the slice form", pos)
		}
	})
}
