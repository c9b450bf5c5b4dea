package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// entropyEncode appends the legacy varint form of vals to dst and
// returns the extended slice: what earlier builds wrote, kept here to
// make legacy vectors for the decode-only varint layer.
func entropyEncode(dst []byte, vals []int32) []byte {
	i := 0
	for i < len(vals) {
		if vals[i] == 0 {
			run := 0
			for i < len(vals) && vals[i] == 0 {
				run++
				i++
			}
			dst = binary.AppendUvarint(dst, 0)
			dst = binary.AppendUvarint(dst, uint64(run))
			continue
		}
		dst = binary.AppendUvarint(dst, zigzag(vals[i]))
		i++
	}
	return dst
}

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

// refBits is the reference Rice reader: one bit at a time, MSB first,
// failing at the first bit past the end of src.
type refBits struct {
	src []byte
	pos int // bits read
}

func (b *refBits) bit() (uint64, bool) {
	if b.pos >= 8*len(b.src) {
		return 0, false
	}
	v := b.src[b.pos/8] >> (7 - b.pos%8) & 1
	b.pos++
	return uint64(v), true
}

// rice reads a unary part of at most riceCap ones and its 0, then k bits
// — or riceEscapeBits after riceCap ones.
func (b *refBits) rice(k int) (uint64, bool) {
	q := 0
	for {
		v, ok := b.bit()
		if !ok || q > riceCap {
			return 0, false
		}
		if v == 0 {
			break
		}
		q++
	}
	if q > riceCap {
		return 0, false
	}
	v, width := uint64(q), k
	if q == riceCap {
		v, width = 0, riceEscapeBits
	}
	for i := 0; i < width; i++ {
		bit, ok := b.bit()
		if !ok {
			return 0, false
		}
		v = v<<1 | bit
	}
	return v, true
}

// refRiceDecode is riceDecode written the plain way, over refBits.
func refRiceDecode(src []byte, n int) ([]int32, int, error) {
	if len(src) == 0 || src[0]>>4 > riceMaxK || src[0]&15 > riceMaxK {
		return nil, 0, ErrCorrupt
	}
	kl, kr := int(src[0]>>4), int(src[0]&15)
	b := refBits{src: src[1:]}
	var out []int32
	for len(out) < n {
		u, ok := b.rice(kl)
		if !ok {
			return nil, 0, ErrCorrupt
		}
		if u != 0 {
			out = append(out, unzigzag(u))
			continue
		}
		run, ok := b.rice(kr)
		if !ok || run+1 > uint64(n-len(out)) {
			return nil, 0, ErrCorrupt
		}
		for ; run+1 > 0; run-- {
			out = append(out, 0)
		}
	}
	return out, 1 + (b.pos+7)/8, nil
}

// varintMagics maps each bitstream magic to the one of the other entropy
// layer; isVarint names the varint ones.
var (
	otherMagic = map[string]string{
		vjpgMagic: vjpgVarintMagic, vjpgVarintMagic: vjpgMagic,
		enhMagic: enhVarintMagic, enhVarintMagic: enhMagic,
		interMagic: interVarintMagic, interVarintMagic: interMagic,
	}
	isVarint = map[string]bool{vjpgVarintMagic: true, enhVarintMagic: true, interVarintMagic: true}
)

// segmentSizes returns the value counts of the entropy segments behind
// the 7-byte header of a w×h bitstream with the given magic: three
// planes for a vjpg frame, the RGB residuals for an enhancement layer,
// the motion field and the YUV residuals for an intermediate.
func segmentSizes(magic string, w, h int) []int {
	cw := (w + 1) / 2
	switch magic {
	case vjpgMagic, vjpgVarintMagic:
		return []int{w * h, cw * h, cw * h}
	case enhMagic, enhVarintMagic:
		return []int{3 * w * h}
	}
	blocks := 0
	for _, p := range planesOf(make([]byte, w*h+2*cw*h), w, h) {
		blocks += blocksInPlane(p)
	}
	return []int{blocks, w*h + 2*cw*h}
}

// refSegments decodes the entropy segments of a bitstream with the
// reference readers — refRiceDecode, or entropyDecode for the varint
// layer — and returns their values.
func refSegments(data []byte) ([][]int32, error) {
	if len(data) < 7 || otherMagic[string(data[:2])] == "" {
		return nil, ErrCorrupt
	}
	magic := string(data[:2])
	w, h := int(binary.BigEndian.Uint16(data[3:])), int(binary.BigEndian.Uint16(data[5:]))
	decode := refRiceDecode
	if isVarint[magic] {
		decode = entropyDecode
	}
	var segs [][]int32
	off := 7
	for _, n := range segmentSizes(magic, w, h) {
		vals, m, err := decode(data[off:], n)
		if err != nil {
			return nil, err
		}
		segs = append(segs, vals)
		off += m
	}
	return segs, nil
}

// recode rewrites a vjpg frame, enhancement layer or vmpg intermediate
// in the other entropy layer, with the same header fields and tokens: a
// Rice-coded one as the varint form earlier builds wrote, a varint one
// Rice-coded.
func recode(t testing.TB, data []byte) []byte {
	t.Helper()
	segs, err := refSegments(data)
	if err != nil {
		t.Fatalf("recode: %v", err)
	}
	magic := string(data[:2])
	out := append([]byte(otherMagic[magic]), data[2:7]...)
	for _, vals := range segs {
		if isVarint[magic] {
			out = riceEncode(out, vals)
		} else {
			out = entropyEncode(out, vals)
		}
	}
	return out
}

// bitBytes packs a string of '0' and '1' (other characters ignored) MSB
// first, padding the last byte with 0 bits.
func bitBytes(s string) []byte {
	var w bitWriter
	for _, c := range s {
		switch c {
		case '0':
			w.put(0, 1)
		case '1':
			w.put(1, 1)
		}
	}
	return w.flush()
}

func TestRiceRoundTripProperty(t *testing.T) {
	f := func(raw []int16, scale uint8) bool {
		vals := make([]int32, len(raw))
		for i, v := range raw {
			vals[i] = int32(v) / (1 + int32(scale)) // zeros and small values as often as not
		}
		enc := riceEncode([]byte{0xaa}, vals)
		dec, n, err := riceDecode(enc[1:], len(vals))
		ref, refN, refErr := refRiceDecode(enc[1:], len(vals))
		if err != nil || refErr != nil || n != len(enc)-1 || refN != n {
			return false
		}
		for i := range vals {
			if dec[i] != vals[i] || ref[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRiceExtremes round-trips what only an escape can carry: the
// int32 extremes as literals, and a run whose n-1 is past the unary
// cap under every parameter.
func TestRiceExtremes(t *testing.T) {
	vals := make([]int32, 3+1<<20)
	vals[0], vals[1], vals[2] = math.MaxInt32, math.MinInt32, -1
	enc := riceEncode(nil, vals)
	dec, n, err := riceDecode(enc, len(vals))
	if err != nil || n != len(enc) || !slices.Equal(dec, vals) {
		t.Fatalf("riceDecode: %d of %d bytes, %v, values equal %v", n, len(enc), err, slices.Equal(dec, vals))
	}
	if _, _, err := refRiceDecode(enc, len(vals)); err != nil {
		t.Fatal(err)
	}
}

// TestRiceZeroRunsCompress: the token grammar keeps the varint layer's
// strength, a long zero run in a few bytes.
func TestRiceZeroRunsCompress(t *testing.T) {
	enc := riceEncode(nil, make([]int32, 10000))
	if len(enc) > 4 {
		t.Errorf("10000 zeros encoded to %d bytes", len(enc))
	}
}

// TestRiceDecodeCorrupt: every malformed segment is ErrCorrupt, from the
// one-pass reader and the reference alike.
func TestRiceDecodeCorrupt(t *testing.T) {
	cases := []struct {
		name string
		src  []byte
		n    int
	}{
		{"empty", nil, 1},
		// Both codes would be whole under a parameter of 15.
		{"literal parameter out of range", append([]byte{0xf0}, bitBytes("0 000000000000001")...), 1},
		{"run parameter out of range", append([]byte{0x0f}, bitBytes("0 0 000000000000000")...), 1},
		{"truncated", []byte{0x00}, 1},
		{"cut mid-token", append([]byte{0x80}, bitBytes("1111 1111 0")...), 1}, // 7 of its 8 low bits
		{"prefix past the cap", append([]byte{0x00}, bitBytes(strings.Repeat("1", riceCap+1)+strings.Repeat("0", riceEscapeBits-1)+"1")...), 1},
		{"escape cut short", append([]byte{0x00}, bitBytes(strings.Repeat("1", riceCap)+"0 0000")...), 1},
		{"run past the end", append([]byte{0x00}, bitBytes("0 11110")...), 4},
		{"second run past the end", append([]byte{0x00}, bitBytes("0 0 0 110")...), 3},
	}
	for _, c := range cases {
		if _, _, err := riceDecode(c.src, c.n); err != ErrCorrupt {
			t.Errorf("%s: %v, want ErrCorrupt", c.name, err)
		}
		if _, _, err := refRiceDecode(c.src, c.n); err != ErrCorrupt {
			t.Errorf("%s: the reference gives %v, want ErrCorrupt", c.name, err)
		}
	}
	// The same codes, one a bit shorter and one whole, are accepted: a
	// run of exactly the rest, an escape of 2^31.
	for _, c := range []struct {
		src  []byte
		want []int32
	}{
		{append([]byte{0x00}, bitBytes("0 1110")...), []int32{0, 0, 0, 0}},
		{append([]byte{0x00}, bitBytes(strings.Repeat("1", riceCap)+"0 1"+strings.Repeat("0", 31))...), []int32{1 << 30}},
	} {
		got, _, err := riceDecode(c.src, len(c.want))
		ref, _, refErr := refRiceDecode(c.src, len(c.want))
		if err != nil || refErr != nil || !slices.Equal(got, c.want) || !slices.Equal(ref, c.want) {
			t.Errorf("%x: %v %v / reference %v %v, want %v", c.src, got, err, ref, refErr, c.want)
		}
	}
}

// TestRiceDecodeStopsAtTruncation: a plane whose codes end early is
// refused within a refill of its end, not decoded on to the size its
// header claims from the 0 bits a reader sees past it.
func TestRiceDecodeStopsAtTruncation(t *testing.T) {
	pix := bytes.Repeat([]byte{0xaa}, 1<<16)
	src := append([]byte{0x00}, bitBytes("0 0 0 0 0 0")...) // three runs of 1
	if _, err := decodePlane(src, pix, 256, 12); err != ErrCorrupt {
		t.Fatalf("decodePlane: %v, want ErrCorrupt", err)
	}
	if written := len(pix) - bytes.Count(pix, []byte{0xaa}); written > 128 {
		t.Errorf("decoded %d pixels from 6 bits", written)
	}
}
