package repl

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"timedmedia/internal/durable"
	"timedmedia/internal/wal"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: TypeRecord, Seq: 42, Payload: []byte("journal record bytes")},
		{Type: TypeHeartbeat, Seq: 99, Backlog: 1 << 20},
		{Type: TypeGone, Seq: 7},
		{Type: TypeRecord, Seq: 43, Payload: []byte{}},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Seq != want.Seq || got.Backlog != want.Backlog ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	// Stream exhausted at a frame boundary: clean EOF, not ErrBadFrame.
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("at end: got %v, want io.EOF", err)
	}
}

// TestFrameGoldenBytes pins RPF1 on the wire: fixed frames must encode
// to these bytes, field by field, so a change that moved them on both
// the writer and the reader alike cannot pass as a round trip.
func TestFrameGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		f   Frame
		hex string // magic · type · seq · backlog · length · crc · payload
	}{
		{Frame{Type: TypeRecord, Seq: 42, Payload: []byte("journal record bytes")},
			"52504631" + "52" + "000000000000002a" + "0000000000000000" + "00000014" + "fc74570c" +
				"6a6f75726e616c207265636f7264206279746573"},
		{Frame{Type: TypeHeartbeat, Seq: 99, Backlog: 1 << 20},
			"52504631" + "48" + "0000000000000063" + "0000000000100000" + "00000000" + "00000000"},
		{Frame{Type: TypeGone, Seq: 7},
			"52504631" + "45" + "0000000000000007" + "0000000000000000" + "00000000" + "00000000"},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, c.f); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != c.hex {
			t.Errorf("%c frame:\n got %s\nwant %s", c.f.Type, got, c.hex)
		}
	}
}

func TestFrameCorruption(t *testing.T) {
	encode := func(f Frame) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	rec := encode(Frame{Type: TypeRecord, Seq: 1, Payload: []byte("payload")})

	cases := map[string][]byte{
		"bad magic":     append([]byte("XXXX"), rec[4:]...),
		"unknown type":  append(append(append([]byte{}, rec[:4]...), 'Z'), rec[5:]...),
		"flipped crc":   flip(rec, 27), // crc lives at header bytes 25..28
		"torn header":   rec[:10],
		"torn payload":  rec[:len(rec)-3],
		"flipped bytes": flip(rec, len(rec)-1), // payload bit flip fails the crc
	}
	for name, data := range cases {
		_, err := ReadFrame(bytes.NewReader(data))
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: got %v, want ErrBadFrame", name, err)
		}
	}
}

func flip(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0xff
	return out
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

// TestHostileFrameLengthAllocation: a header that claims its format's
// bound and is followed by nothing must not make the decoder allocate
// the claimed length. RPF1 arrives over the network, and the journal
// decoder reads what the feed ships.
func TestHostileFrameLengthAllocation(t *testing.T) {
	claim := func(prefix []byte, n uint32) []byte {
		return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(prefix, n), 0)
	}
	rpf1 := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64([]byte("RPF1R"), 1), 0)
	for _, c := range []struct {
		name   string
		data   []byte
		decode func(data []byte) error
	}{
		{"WAL1 record", claim([]byte("WAL1"), wal.MaxRecordLen), func(data []byte) error {
			res, err := wal.ReplayFrames(bytes.NewReader(data), func([]byte) error { return nil })
			if err == nil && !res.Torn {
				err = errors.New("not reported as a tear")
			}
			return err
		}},
		{"RPF1 frame", claim(rpf1, MaxFramePayload), func(data []byte) error {
			if _, err := ReadFrame(bytes.NewReader(data)); !errors.Is(err, ErrBadFrame) {
				return fmt.Errorf("err = %v, want ErrBadFrame", err)
			}
			return nil
		}},
		{"TBMSNAP2 chunk", claim([]byte("TBMSNAP2\x00\x00\x00\x02"), durable.MaxChunkLen), func(data []byte) error {
			cr, err := durable.NewChunkReader(bytes.NewReader(data))
			if err == nil {
				_, err = io.ReadAll(cr)
			}
			if !errors.Is(err, durable.ErrCorrupt) {
				return fmt.Errorf("err = %v, want ErrCorrupt", err)
			}
			return nil
		}},
	} {
		if err := c.decode(c.data); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		const limit = 1 << 20
		if n := allocBytes(limit, func() { c.decode(c.data) }); n >= limit {
			t.Errorf("%s: a %d-byte header claiming the bound allocated %d bytes", c.name, len(c.data), n)
		}
	}
}

// FuzzReadFrame feeds the replication wire decoder arbitrary bytes. A
// stream that is not empty is never a clean io.EOF: it is a frame or
// ErrBadFrame. An accepted frame has a known type and re-encodes through
// WriteFrame to exactly the bytes it was read from. What the decoder
// allocates is bounded by a constant plus a multiple of the input's
// length, whatever length the header claims.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range []Frame{
		{Type: TypeRecord, Seq: 42, Payload: []byte("journal record bytes")},
		{Type: TypeHeartbeat, Seq: 99, Backlog: 1 << 20},
		{Type: TypeGone, Seq: 7},
	} {
		var buf bytes.Buffer
		WriteFrame(&buf, fr)
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:frameHeaderLen-3]) // torn header
	}
	var rec bytes.Buffer
	WriteFrame(&rec, Frame{Type: TypeRecord, Seq: 1, Payload: []byte("payload")})
	f.Add(rec.Bytes()[:rec.Len()-2])                                               // torn payload
	f.Add(append([]byte("RPF1Z"), rec.Bytes()[5:]...))                             // unknown type
	f.Add(binary.BigEndian.AppendUint64(rec.Bytes()[:21:21], MaxFramePayload<<32)) // the bound, then nothing
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		bound := 64<<10 + 4096 + 18*uint64(len(data))
		if n := allocBytes(bound, func() { ReadFrame(bytes.NewReader(data)) }); n > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		r := bytes.NewReader(data)
		fr, err := ReadFrame(r)
		switch {
		case len(data) == 0:
			if err != io.EOF {
				t.Fatalf("empty stream: err = %v, want io.EOF", err)
			}
			return
		case err != nil:
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%d bytes refused with %v, want ErrBadFrame", len(data), err)
			}
			return
		case fr.Type != TypeRecord && fr.Type != TypeHeartbeat && fr.Type != TypeGone:
			t.Fatalf("accepted unknown type %q", fr.Type)
		}
		var re bytes.Buffer
		if err := WriteFrame(&re, fr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), data[:len(data)-r.Len()]) {
			t.Fatalf("accepted frame re-encodes to different bytes")
		}
	})
}
