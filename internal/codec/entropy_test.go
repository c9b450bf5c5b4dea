package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"timedmedia/internal/frame"
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

// refRiceDecode is riceDecode written the plain way, over refBits:
// the header of Rice layer l, then each token read under the parameter
// the grammar gives it — a literal after a run short of maxRun under kb
// as k-1 in layerRice and the MED-predicted layers, every other token under
// ka.
func refRiceDecode(src []byte, n int, l layer) ([]int32, int, error) {
	var ka, kb, kr, bias, head int
	switch {
	case l == layerRice1 && len(src) >= 1:
		ka, kr, head = int(src[0]>>4), int(src[0]&15), 1
		kb = ka
	case (l == layerRice || l >= layerMED) && len(src) >= 2 && src[1]&15 == 0:
		ka, kb, kr, bias, head = int(src[0]>>4), int(src[0]&15), int(src[1]>>4), 1, 2
	default:
		return nil, 0, ErrCorrupt
	}
	if ka > riceMaxK || kb > riceMaxK || kr > riceMaxK {
		return nil, 0, ErrCorrupt
	}
	b := refBits{src: src[head:]}
	var out []int32
	interrupted := false
	for len(out) < n {
		k, add := ka, 0
		if interrupted {
			k, add = kb, bias
		}
		u, ok := b.rice(k)
		if !ok || u+uint64(add) >= 1<<32 {
			return nil, 0, ErrCorrupt
		}
		u += uint64(add)
		if u != 0 {
			out = append(out, unzigzag(u))
			interrupted = false
			continue
		}
		run, ok := b.rice(kr)
		if !ok || run+1 > uint64(n-len(out)) {
			return nil, 0, ErrCorrupt
		}
		interrupted = run+1 < maxRun
		for ; run+1 > 0; run-- {
			out = append(out, 0)
		}
	}
	return out, head + (b.pos+7)/8, nil
}

// refVertDecode reads a "VV" plane of n values, width wide, the plain
// way over refBits: its spare nibble names its mode, 0 for a "VY"
// plane's code (refRiceDecode) and 1 for vertical mode, three parameter
// bytes and then tokens. In vertical mode a run's reference is found by
// scanning the values read so far: the first nonzero one at or after
// the run's start less width-1, if it lies before the start and the
// position a row below it inside the plane. A run with one is read
// after a flag bit: 1 for its end under kd, p-1 less its zigzagged
// code, p the position below the reference, or 0 for its length under
// kr; and the literal after a run read by its end is read under kv as
// its difference from the reference's value, modulo 2^32.
func refVertDecode(src []byte, n, width int) ([]int32, int, error) {
	if len(src) >= 2 && src[1]&15 == 0 {
		return refRiceDecode(src, n, layerMED)
	}
	if len(src) < 3 || src[1]&15 != 1 {
		return nil, 0, ErrCorrupt
	}
	ka, kb, kr := int(src[0]>>4), int(src[0]&15), int(src[1]>>4)
	kd, kv := int(src[2]>>4), int(src[2]&15)
	if max(ka, kb, kr, kd, kv) > riceMaxK {
		return nil, 0, ErrCorrupt
	}
	b := refBits{src: src[3:]}
	var out []int32
	const (
		afterLiteral = iota
		afterLength
		afterEnd
	)
	after, against := afterLiteral, int32(0)
	for len(out) < n {
		var u uint64
		var ok bool
		switch after {
		case afterLiteral:
			u, ok = b.rice(ka)
		case afterLength:
			u, ok = b.rice(kb)
			u++
			ok = ok && u < 1<<32
		case afterEnd:
			u, ok = b.rice(kv)
		}
		if !ok {
			return nil, 0, ErrCorrupt
		}
		if after == afterEnd {
			v := against + unzigzag(u)
			if v == 0 {
				return nil, 0, ErrCorrupt
			}
			out = append(out, v)
			after = afterLiteral
			continue
		}
		if u != 0 {
			out = append(out, unzigzag(u))
			after = afterLiteral
			continue
		}
		s, ref := len(out), -1
		for j := max(0, s+1-width); j < s; j++ {
			if out[j] != 0 {
				if j+width < n {
					ref = j
				}
				break
			}
		}
		flag := uint64(0)
		if ref >= 0 {
			if flag, ok = b.bit(); !ok {
				return nil, 0, ErrCorrupt
			}
		}
		if flag == 1 {
			m, ok := b.rice(kd)
			e := int64(ref+width) - 1 - int64(unzigzag(m))
			if !ok || e <= int64(s) || e > int64(n) {
				return nil, 0, ErrCorrupt
			}
			out = append(out, make([]int32, int(e)-s)...)
			after, against = afterEnd, out[ref]
			continue
		}
		run, ok := b.rice(kr)
		if !ok || run+1 > uint64(n-s) {
			return nil, 0, ErrCorrupt
		}
		out = append(out, make([]int32, run+1)...)
		after = afterLength
	}
	return out, 3 + (b.pos+7)/8, nil
}

// allMagics are every segment kind's magics.
var allMagics = []magics{vjpgMagics, enhMagics, interMagics}

// kindOf returns the magics and the layer of a bitstream's magic.
func kindOf(data []byte) (magics, layer, bool) {
	for _, m := range allMagics {
		if l, ok := layerOf(data, m); ok {
			return m, l, true
		}
	}
	return magics{}, 0, false
}

// segmentSizes returns the value counts of the entropy segments behind
// the 7-byte header of a w×h bitstream of kind m: three planes for a
// vjpg frame, the RGB residuals for an enhancement layer, the motion
// field and the YUV residuals for an intermediate. For a vjpg frame it
// also returns its planes' widths.
func segmentSizes(m magics, w, h int) (sizes, widths []int) {
	cw := (w + 1) / 2
	switch m {
	case vjpgMagics:
		return []int{w * h, cw * h, cw * h}, []int{w, cw, cw}
	case enhMagics:
		return []int{3 * w * h}, nil
	}
	blocks := 0
	for _, p := range planesOf(make([]byte, w*h+2*cw*h), w, h) {
		blocks += blocksInPlane(p)
	}
	return []int{blocks, w*h + 2*cw*h}, nil
}

// refSegments decodes the entropy segments of a bitstream with the
// reference readers — refRiceDecode, refVertDecode for the planes of a
// "VV" frame, refArithSegments for those of a "VA" frame, or
// entropyDecode for the varint layer — and returns their values.
func refSegments(data []byte) ([][]int32, error) {
	m, l, ok := kindOf(data)
	if len(data) < 7 || !ok {
		return nil, ErrCorrupt
	}
	w, h := int(binary.BigEndian.Uint16(data[3:])), int(binary.BigEndian.Uint16(data[5:]))
	var segs [][]int32
	off := 7
	sizes, widths := segmentSizes(m, w, h)
	if l == layerArith {
		return refArithSegments(data[off:], sizes, widths)
	}
	for i, n := range sizes {
		var vals []int32
		var k int
		var err error
		switch l {
		case layerVarint:
			vals, k, err = entropyDecode(data[off:], n)
		case layerVert:
			vals, k, err = refVertDecode(data[off:], n, widths[i])
		default:
			vals, k, err = refRiceDecode(data[off:], n, l)
		}
		if err != nil {
			return nil, err
		}
		segs = append(segs, vals)
		off += k
	}
	return segs, nil
}

// rice1Encode appends vals to dst in layerRice1, the Rice layer without
// run interruption that earlier builds wrote: one parameter byte, every
// token under one literal parameter. It is kept here, as entropyEncode
// is, to make vectors of a decode-only layer.
func rice1Encode(dst []byte, vals []int32) []byte {
	var lits, runs []uint64
	for i := 0; i < len(vals); {
		u, run, next := token(vals, i)
		lits = append(lits, u)
		if run > 0 {
			runs = append(runs, uint64(run-1))
		}
		i = next
	}
	kl, kr := rice1Param(lits), rice1Param(runs)
	w := bitWriter{dst: append(dst, byte(kl<<4|kr))}
	for i := 0; i < len(vals); {
		u, run, next := token(vals, i)
		w.rice(u, kl)
		if run > 0 {
			w.rice(uint64(run-1), kr)
		}
		i = next
	}
	return w.flush()
}

// rice1Param is the parameter earlier builds chose for values: the one
// of least estimated cost, with each value below riceLiteralHist costed
// exactly and the rest by bit length, a class as if every unary part in
// it were the class sum's share. The estimate is not always exact, so
// the choice is not always riceHist.best's.
func rice1Param(vals []uint64) uint {
	best, bestCost := uint(0), ^uint64(0)
	for k := uint(0); k <= riceMaxK; k++ {
		var cost uint64
		var n, sum [65]uint64
		for _, u := range vals {
			if u < riceLiteralHist {
				cost += riceLen(u, k)
				continue
			}
			n[bits.Len64(u)]++
			sum[bits.Len64(u)] += u
		}
		for b := range n {
			switch {
			case n[b] == 0:
			case uint64(1)<<(b-1)>>k >= riceCap: // every value escapes
				cost += n[b] * (riceCap + 1 + riceEscapeBits)
			default:
				cost += n[b]*uint64(k+1) + sum[b]>>k
			}
		}
		if cost < bestCost {
			best, bestCost = k, cost
		}
	}
	return best
}

// vertRun is a zero run of a plane as the vertical-mode encoder sees
// it: its two codes and the literal after it in each. Without a
// reference, or with one too far from its end, only the first applies.
type vertRun struct {
	n, m      uint64 // its length less 1, and its end against its reference (endCode)
	lit, vlit uint64 // the literal after it, as kb and as kv code it
	ref, near bool   // it has a reference (and a flag bit); its end can be coded against it
	last      bool   // it ends the plane: no literal after it
	vertical  bool   // it is coded against its reference
}

// endCode is the code of a vertically coded run's end e against its
// reference p: zigzag(p-1-e), so that a run ending one short of p codes
// 0, one ending at p 1, and one ending a pixel before or after those 2
// and 3. It reports false for an end too far from p to code.
func endCode(p, e int) (uint64, bool) {
	d := int64(p) - 1 - int64(e)
	return zigzag(int32(d)), d == int64(int32(d))
}

// riceEncodePlane appends vals, a plane width values wide, to dst in
// layerVert, as builds before range coding wrote it; it is kept here,
// as rice1Encode is, to make frames of a decode-only layer: in vertical mode where that takes fewer bytes than
// riceEncode's code, and as riceEncode codes it — a layerMED plane byte
// for byte — where it does not, so no plane takes more bytes than that.
// Both sizes come exactly from the token histograms, so only the
// shorter code is written.
//
// Vertical mode is three parameter bytes, ka<<4|kb, kr<<4|1 and
// kd<<4|kv, then the codes. A run with a reference (see vertRefs) is
// coded after a flag bit: 1 and its end under kd (endCode), or 0 and
// its length under kr, whichever, with the literal after it, takes
// fewer bits; the literal after a vertically coded run is coded under
// kv as the zigzagged difference, modulo 2^32, from its reference's
// literal. The parameters and the choices are fitted to each other in
// turn, a fixed number of rounds.
func riceEncodePlane(dst []byte, vals []int32, width int) []byte {
	var after, lits, runs, ends, vlits riceHist
	var rs []vertRun
	j := 0 // no nonzero value lies between the reference window's start and j
	for i, prev := 0, 0; i < len(vals); {
		u, run, end := token(vals, i)
		if prev == 0 {
			after.add(u)
		}
		if run == 0 {
			i, prev = end, 0
			continue
		}
		r := vertRun{n: uint64(run - 1), last: end == len(vals)}
		if !r.last {
			r.lit = zigzag(vals[end]) - 1
		}
		for j = max(j, i+1-width); j < i && vals[j] == 0; {
			j++
		}
		if j < i && j+width < len(vals) {
			r.ref = true
			r.m, r.near = endCode(j+width, end)
			if !r.last {
				r.vlit = zigzag(vals[end] - vals[j])
			}
		}
		rs = append(rs, r)
		i, prev = end, run
	}
	// Start from every run coded by length and every one that has a
	// reference by its end, then choose and refit. Every run with a
	// reference takes a flag bit.
	var flags uint64
	for _, r := range rs {
		if r.ref {
			flags++
		}
		runs.add(r.n)
		if !r.last {
			lits.add(r.lit)
		}
		if r.near {
			ends.add(r.m)
			if !r.last {
				vlits.add(r.vlit)
			}
		}
	}
	ka, afterBits := after.fit()
	kb, litBits := lits.fit()
	kr, runBits := runs.fit()
	byLenBits := afterBits + litBits + runBits // riceEncode's codes
	kd, kv := ends.best(), vlits.best()
	var vertBits uint64
	for round := 0; round < 3; round++ {
		lits, runs, ends, vlits = riceHist{}, riceHist{}, riceHist{}, riceHist{}
		for i := range rs {
			r := &rs[i]
			byLen, byEnd := riceLen(r.n, kr), riceLen(r.m, kd)
			if !r.last {
				byLen += riceLen(r.lit, kb)
				byEnd += riceLen(r.vlit, kv)
			}
			r.vertical = r.near && byEnd < byLen
			switch {
			case r.vertical:
				ends.add(r.m)
				if !r.last {
					vlits.add(r.vlit)
				}
			default:
				runs.add(r.n)
				if !r.last {
					lits.add(r.lit)
				}
			}
		}
		var b, r, d, v uint64
		kb, b = lits.fit()
		kr, r = runs.fit()
		kd, d = ends.fit()
		kv, v = vlits.fit()
		vertBits = afterBits + flags + b + r + d + v
	}
	if 3+(vertBits+7)/8 >= 2+(byLenBits+7)/8 {
		return riceEncode(dst, vals)
	}
	w := bitWriter{dst: append(dst, byte(ka<<4|kb), byte(kr<<4|1), byte(kd<<4|kv))}
	var prev *vertRun // the run before the current value, if any
	for i, ri := 0, 0; i < len(vals); {
		if v := vals[i]; v != 0 {
			switch {
			case prev == nil:
				w.rice(zigzag(v), ka)
			case prev.vertical:
				w.rice(prev.vlit, kv)
			default:
				w.rice(prev.lit, kb)
			}
			prev = nil
			i++
			continue
		}
		// A plane holds fewer than maxRun values, so a run follows a
		// literal or starts the plane.
		w.rice(0, ka)
		prev = &rs[ri]
		ri++
		switch {
		case prev.vertical:
			w.put(1, 1)
			w.rice(prev.m, kd)
		case prev.ref:
			w.put(0, 1)
			fallthrough
		default:
			w.rice(prev.n, kr)
		}
		i += int(prev.n) + 1
	}
	return w.flush()
}

// encodeSegment appends vals to dst in layer l.
func encodeSegment(dst []byte, vals []int32, l layer) []byte {
	switch l {
	case layerRice1:
		return rice1Encode(dst, vals)
	case layerVarint:
		return entropyEncode(dst, vals)
	}
	return riceEncode(dst, vals)
}

// recode rewrites a vjpg frame, enhancement layer or vmpg intermediate
// in layer l, with the same header fields and tokens: a Rice-coded one
// as the forms earlier builds wrote, and those as the one written now.
// A vjpg frame's tokens are residuals of its layer's predictor, so a
// "VN" or "VB" frame has no other layer and no other frame becomes one;
// but "VY", "VV" and "VA" frames hold the same residuals, so each
// becomes any of the three: recoded as "VV", it is what builds before
// range coding wrote.
func recode(t testing.TB, data []byte, l layer) []byte {
	t.Helper()
	segs, err := refSegments(data)
	if err != nil {
		t.Fatalf("recode: %v", err)
	}
	m, from, _ := kindOf(data)
	sameResiduals := func(l layer) bool { return l == layerLuma || l == layerVert || l == layerArith }
	if from != l && (from >= layerMED || l >= layerMED) && !(sameResiduals(from) && sameResiduals(l)) {
		t.Fatalf("recode: %s tokens are not layer %d's", data[:2], l)
	}
	out := append([]byte(m[l]), data[2:7]...)
	_, widths := segmentSizes(m, int(binary.BigEndian.Uint16(data[3:])), int(binary.BigEndian.Uint16(data[5:])))
	switch l {
	case layerArith:
		e := newRangeEncoder(out)
		var am arithModels
		var rows arithRows
		for i, vals := range segs {
			encodeArithPlane(&e, &am, &rows, vals, widths[i])
		}
		return e.flush()
	case layerVert:
		for i, vals := range segs {
			out = riceEncodePlane(out, vals, widths[i])
		}
		return out
	}
	for _, vals := range segs {
		out = encodeSegment(out, vals, l)
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

// TestRiceRoundTripProperty: any values, escapes and long runs among
// them, round-trip through the one-pass reader and the reference alike,
// in the layer written now and in layerRice1; and the segment written
// now is never more than one byte longer than layerRice1's for the same
// tokens. Its parameters are each the best for the tokens they code,
// and layerRice1's literal parameter, taken for both, would code every
// after-run literal in no more bits than it does there; only the second
// parameter byte is new.
func TestRiceRoundTripProperty(t *testing.T) {
	f := func(raw []int16, scale uint8, gap uint16, big int32) bool {
		vals := make([]int32, len(raw), len(raw)+int(gap)+1+len(raw))
		for i, v := range raw {
			vals[i] = int32(v) / (1 + int32(scale)) // zeros and small values as often as not
		}
		vals = append(vals, make([]int32, gap)...)
		vals = append(vals, big) // an after-run literal, escaped as often as not
		vals = append(vals, vals[:len(raw)]...)
		segs := map[layer][]byte{}
		for _, l := range []layer{layerRice, layerRice1} {
			enc := encodeSegment([]byte{0xaa}, vals, l)
			dec, n, err := riceDecode(enc[1:], len(vals), l)
			ref, refN, refErr := refRiceDecode(enc[1:], len(vals), l)
			if err != nil || refErr != nil || n != len(enc)-1 || refN != n || !slices.Equal(dec, vals) || !slices.Equal(ref, vals) {
				t.Logf("layer %d: %d and %d of %d bytes, %v / %v", l, n, refN, len(enc)-1, err, refErr)
				return false
			}
			segs[l] = enc
		}
		if len(segs[layerRice]) > len(segs[layerRice1])+1 {
			t.Logf("%d bytes, %d in layerRice1", len(segs[layerRice]), len(segs[layerRice1]))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRiceExtremes round-trips what only an escape can carry: the
// int32 extremes as literals, one of them after a run, and a run whose
// n-1 is past the unary cap under every parameter.
func TestRiceExtremes(t *testing.T) {
	vals := make([]int32, 5+1<<20)
	vals[0], vals[1], vals[2], vals[4] = math.MaxInt32, math.MinInt32, -1, math.MinInt32
	for _, l := range []layer{layerRice, layerRice1} {
		enc := encodeSegment(nil, vals, l)
		dec, n, err := riceDecode(enc, len(vals), l)
		if err != nil || n != len(enc) || !slices.Equal(dec, vals) {
			t.Fatalf("layer %d: %d of %d bytes, %v, values equal %v", l, n, len(enc), err, slices.Equal(dec, vals))
		}
		if _, _, err := refRiceDecode(enc, len(vals), l); err != nil {
			t.Fatal(err)
		}
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
// one-pass reader and the reference alike, in either Rice layer.
func TestRiceDecodeCorrupt(t *testing.T) {
	ones := strings.Repeat("1", riceCap)
	cases := []struct {
		name string
		l    layer
		src  []byte
		n    int
	}{
		{"empty", layerRice, nil, 1},
		{"one parameter byte", layerRice, []byte{0x00}, 1},
		// Each code would be whole under a parameter of 15.
		{"literal parameter out of range", layerRice, append([]byte{0xf0, 0x00}, bitBytes("0 000000000000001")...), 1},
		{"after-run parameter out of range", layerRice, append([]byte{0x0f, 0x00}, bitBytes("0 0 0 000000000000000")...), 2},
		{"run parameter out of range", layerRice, append([]byte{0x00, 0xf0}, bitBytes("0 0 000000000000000")...), 1},
		{"nonzero spare nibble", layerRice, append([]byte{0x00, 0x01}, bitBytes("0 0")...), 1},
		{"truncated", layerRice, []byte{0x00, 0x00}, 1},
		{"cut in an after-run literal", layerRice, append([]byte{0x08, 0x00}, bitBytes("0 0 0 11111")...), 2}, // 5 of its 8 low bits
		{"escaped after-run literal past 32 bits", layerRice, append([]byte{0x00, 0x00}, bitBytes("0 0 "+ones+"0 "+strings.Repeat("1", riceEscapeBits))...), 2},
		{"run past the end", layerRice, append([]byte{0x00, 0x00}, bitBytes("0 11110")...), 4},
		{"prefix past the cap", layerRice, append([]byte{0x00, 0x00}, bitBytes(ones+"1"+strings.Repeat("0", riceEscapeBits-1)+"1")...), 1},

		{"empty", layerRice1, nil, 1},
		{"literal parameter out of range", layerRice1, append([]byte{0xf0}, bitBytes("0 000000000000001")...), 1},
		{"run parameter out of range", layerRice1, append([]byte{0x0f}, bitBytes("0 0 000000000000000")...), 1},
		{"truncated", layerRice1, []byte{0x00}, 1},
		{"cut mid-token", layerRice1, append([]byte{0x80}, bitBytes("1111 1111 0")...), 1}, // 7 of its 8 low bits
		{"prefix past the cap", layerRice1, append([]byte{0x00}, bitBytes(ones+"1"+strings.Repeat("0", riceEscapeBits-1)+"1")...), 1},
		{"escape cut short", layerRice1, append([]byte{0x00}, bitBytes(ones+"0 0000")...), 1},
		{"run past the end", layerRice1, append([]byte{0x00}, bitBytes("0 11110")...), 4},
		{"second run past the end", layerRice1, append([]byte{0x00}, bitBytes("0 0 0 110")...), 3},
	}
	for _, c := range cases {
		if _, _, err := riceDecode(c.src, c.n, c.l); err != ErrCorrupt {
			t.Errorf("layer %d, %s: %v, want ErrCorrupt", c.l, c.name, err)
		}
		if _, _, err := refRiceDecode(c.src, c.n, c.l); err != ErrCorrupt {
			t.Errorf("layer %d, %s: the reference gives %v, want ErrCorrupt", c.l, c.name, err)
		}
	}
	// Codes next to those, whole, are accepted: a run of exactly the
	// rest, an escape of 2^31, an after-run literal of code 0 (the
	// value 1, so -1), one that escapes to the int32 extreme, and, in
	// layerRice1, a second run where the layer written now reads a
	// literal.
	for _, c := range []struct {
		l    layer
		src  []byte
		want []int32
	}{
		{layerRice, append([]byte{0x00, 0x00}, bitBytes("0 1110")...), []int32{0, 0, 0, 0}},
		{layerRice, append([]byte{0x00, 0x00}, bitBytes(ones+"0 1"+strings.Repeat("0", 31))...), []int32{1 << 30}},
		{layerRice, append([]byte{0x00, 0x00}, bitBytes("0 0 0 110")...), []int32{0, -1, 1}},
		{layerRice, append([]byte{0x00, 0x00}, bitBytes("0 0 "+ones+"0 "+strings.Repeat("1", riceEscapeBits-1)+"0")...), []int32{0, math.MinInt32}},
		{layerRice1, append([]byte{0x00}, bitBytes("0 1110")...), []int32{0, 0, 0, 0}},
		{layerRice1, append([]byte{0x00}, bitBytes(ones+"0 1"+strings.Repeat("0", 31))...), []int32{1 << 30}},
		{layerRice1, append([]byte{0x00}, bitBytes("0 0 0 0 110")...), []int32{0, 0, 1}},
	} {
		got, _, err := riceDecode(c.src, len(c.want), c.l)
		ref, _, refErr := refRiceDecode(c.src, len(c.want), c.l)
		if err != nil || refErr != nil || !slices.Equal(got, c.want) || !slices.Equal(ref, c.want) {
			t.Errorf("layer %d, %x: %v %v / reference %v %v, want %v", c.l, c.src, got, err, ref, refErr, c.want)
		}
	}
}

// TestRiceDecodeStopsAtTruncation: a plane whose codes end early is
// refused within a refill of its end, not decoded on to the size its
// header claims from the 0 bits a reader sees past it.
func TestRiceDecodeStopsAtTruncation(t *testing.T) {
	for l, head := range map[layer][]byte{layerRice: {0x00, 0x00}, layerRice1: {0x00}, layerVert: {0x00, 0x01, 0x00}} {
		pix := bytes.Repeat([]byte{0xaa}, 1<<16)
		src := append(head, bitBytes("0 0 0 0 0 0")...)
		if _, err := decodePlane(src, pix, 256, 12, l, nil, &vertRefs{}); err != ErrCorrupt {
			t.Fatalf("layer %d: decodePlane: %v, want ErrCorrupt", l, err)
		}
		if written := len(pix) - bytes.Count(pix, []byte{0xaa}); written > 128 {
			t.Errorf("layer %d: decoded %d pixels from 6 bits", l, written)
		}
	}
}

// encodeLayer is encodeVJPG in layer l, and in layerVert too, which no
// encoder in the package writes any more: a "VV" frame is the "VY"
// frame's residuals recoded (recode).
func encodeLayer(t testing.TB, f *frame.Frame, q int, l layer) []byte {
	t.Helper()
	el := l
	if l == layerVert {
		el = layerLuma
	}
	data, err := encodeVJPG(f, q, el)
	if err != nil {
		t.Fatal(err)
	}
	if l == layerVert {
		data = recode(t, data, layerVert)
	}
	return data
}
