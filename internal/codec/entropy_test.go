package codec

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestZigzagRoundTripProperty(t *testing.T) {
	f := func(v int32) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZigzagSmallMagnitudes(t *testing.T) {
	cases := map[int32]uint64{0: 0, -1: 1, 1: 2, -2: 3, 2: 4}
	for v, want := range cases {
		if got := zigzag(v); got != want {
			t.Errorf("zigzag(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestEntropyRoundTrip(t *testing.T) {
	vals := []int32{0, 0, 0, 5, -3, 0, 0, 0, 0, 0, 127, -128, 1, 0}
	enc := entropyEncode(nil, vals)
	dec, n, err := entropyDecode(enc, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Errorf("consumed %d of %d bytes", n, len(enc))
	}
	for i := range vals {
		if dec[i] != vals[i] {
			t.Errorf("val %d = %d, want %d", i, dec[i], vals[i])
		}
	}
}

func TestEntropyRoundTripProperty(t *testing.T) {
	f := func(raw []int16) bool {
		vals := make([]int32, len(raw))
		for i, v := range raw {
			vals[i] = int32(v) / 64 // bias toward zeros and small values
		}
		enc := entropyEncode(nil, vals)
		dec, _, err := entropyDecode(enc, len(vals))
		if err != nil {
			return false
		}
		for i := range vals {
			if dec[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEntropyZeroRunsCompress(t *testing.T) {
	vals := make([]int32, 10000) // all zero
	enc := entropyEncode(nil, vals)
	if len(enc) > 4 {
		t.Errorf("10000 zeros encoded to %d bytes", len(enc))
	}
}

// TestEntropyDecodeHugeRun: a run of 2^63 or more is past the end of
// any n, and must be refused rather than wrap to a negative length.
func TestEntropyDecodeHugeRun(t *testing.T) {
	for _, run := range []uint64{1 << 63, 1<<64 - 1} {
		src := binary.AppendUvarint([]byte{0}, run)
		if _, _, err := entropyDecode(src, 4); err != ErrCorrupt {
			t.Errorf("run of %d: %v, want ErrCorrupt", run, err)
		}
	}
}

func TestEntropyDecodeCorrupt(t *testing.T) {
	// Truncated stream.
	if _, _, err := entropyDecode([]byte{}, 5); err != ErrCorrupt {
		t.Errorf("empty: %v", err)
	}
	// A zero-run longer than requested n.
	bad := entropyEncode(nil, make([]int32, 10))
	if _, _, err := entropyDecode(bad, 5); err != ErrCorrupt {
		t.Errorf("overlong run: %v", err)
	}
	// Zero-run with zero length marker.
	if _, _, err := entropyDecode([]byte{0, 0}, 1); err != ErrCorrupt {
		t.Errorf("zero run length: %v", err)
	}
}
