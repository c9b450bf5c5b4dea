package codec

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The entropy layer shared by vjpg, its enhancement layer and vmpg's
// intermediates. Signed residuals are zigzag-mapped to unsigned
// values; runs of zeros collapse to a zero marker followed by the run
// length. Token grammar:
//
//	0, n   — a run of n zero values
//	k > 0  — the single value unzigzag(k)
//
// Each plane or segment is Golomb-Rice coded under three parameters,
// each at most riceMaxK, held in two header bytes, ka<<4|kb then kr<<4
// (a nonzero low nibble in the second is refused):
//
//	ka — a token after a literal (or at the segment's start), which may
//	     be the zero marker
//	kb — the literal after a zero run shorter than maxRun, written as
//	     k-1: the run stopped at a nonzero value, so the token there is
//	     never the marker (JPEG-LS's run interruption)
//	kr — a run's length, written as n-1, so a run of 0 cannot be written
//
// A run of maxRun is followed by a token under ka, as after a literal;
// a run that ends the segment by nothing. A value u under parameter k is
// written MSB first as u>>k in unary (that many 1 bits and a 0), then
// the low k bits of u. A unary part of riceCap or more is written as
// riceCap 1 bits and a 0, the escape, followed by u in riceEscapeBits
// bits; riceCap+1 ones in a row is refused, and so is an escaped
// after-run literal of 2^32-1, whose k would pass 32 bits. No code is
// longer than riceCap+1+riceEscapeBits bits. The segment's last byte is
// padded with 0 bits, so the next one starts byte-aligned.
//
// Streams earlier builds wrote use one of two older layers, decoded for
// stored data and never written: the Rice layer without run
// interruption (one header byte ka<<4|kr, every token under ka), read
// by the same loops as the current one with kb = ka and no -1 bias; and
// the byte-varint layer (each token a uvarint), entropyDecode and
// decodePlaneVarint.
//
// vjpg planes, the one segment kind that runs DPCM, have a fourth
// layer: layerRice's codes over residuals of the median edge detector
// (see predict in vjpg.go), where the other layers' residuals are of
// the mean of left and above. A vjpg frame has four more, frame-level
// ones: layerArith, written now, whose planes are range coded (see
// arith.go); layerVert; layerLuma, whose three planes are each in
// layerMED over a bias-corrected row above (see biasState in vjpg.go);
// and layerBias, whose chroma planes are so and whose luma plane is
// plain layerMED. Earlier builds wrote the last three.
//
// A layerVert plane, which earlier builds wrote, holds a layerLuma
// plane's residuals, coded in one of two modes that the low nibble of
// its second parameter byte names, whichever took fewer bytes: 0, the
// layerMED code byte for byte, or
// 1, vertical mode, where a zero run may end against the row above (as
// ITU-T T.4's two-dimensional coding codes a change against the line
// before). Vertical mode adds a third parameter byte, kd<<4|kv:
//
//	kd — a vertically coded run's end e, as zigzag(p-1-e), where p is
//	     the run's reference (below)
//	kv — the literal after such a run, as the zigzag of its difference,
//	     modulo 2^32, from the literal above p (which is never 0)
//
// A run starting at s has a reference if some value at s+1-width to
// s-1 is nonzero and the position a row below the first such one, p,
// lies inside the plane: p is then the first position after s whose
// neighbour above holds a nonzero residual. Most runs end one short of
// p or at it, below an edge the row above crossed. A run with a
// reference is coded after a flag bit: 1 and its end under kd, or 0
// and its length under kr with the literal after it under kb, as a run
// without one is.

// layer is an entropy layer, and for a vjpg plane the predictor its
// residuals are of. A bitstream's two-byte magic names the layer of its
// segments, one magic per layer for each segment kind.
type layer uint8

const (
	layerRice   layer = iota // Rice with run interruption: written (vjpg frames only as vmpg keys)
	layerRice1               // Rice without it: read only
	layerVarint              // byte varints: read only
	layerMED                 // layerRice over MED residuals: vjpg planes only, read only as a frame's layer
	layerBias                // layerMED with bias-corrected chroma: vjpg frames only, read only
	layerLuma                // layerBias with the luma plane corrected too: vjpg frames only, read only
	layerVert                // layerLuma with vertical runs: vjpg frames and their planes only, read only as a frame's layer
	layerArith               // layerVert's residuals, range coded under contexts: written, vjpg frames only
)

// magics are a segment kind's magics, indexed by layer; a kind has none
// (an empty string, which no data opens with) for a layer it never had.
type magics [8]string

// layerOf returns the layer data's magic names among m, and false if
// data opens with none of them.
func layerOf(data []byte, m magics) (layer, bool) {
	if len(data) >= 2 {
		for l, magic := range m {
			if string(data[:2]) == magic {
				return layer(l), true
			}
		}
	}
	return 0, false
}

const (
	riceCap         = 24 // unary part at which a code escapes
	riceEscapeBits  = 32 // width of an escaped value
	riceMaxK        = 14 // largest parameter; 15 in any nibble is refused
	riceLiteralHist = 64 // literals below this are counted one by one

	// riceMaxCode is the longest code short of an escape: a reader
	// with that many bits loaded can read any code but an escape.
	riceMaxCode = riceCap + riceMaxK
)

// maxRun is the longest zero run one token carries: its n-1 must fit an
// escape. Longer runs are written as several.
const maxRun = 1 << riceEscapeBits

// zigzag maps signed to unsigned preserving small magnitudes.
func zigzag(v int32) uint64 {
	return uint64(uint32((v << 1) ^ (v >> 31)))
}

// unzigzag inverts zigzag.
func unzigzag(u uint64) int32 {
	return int32(uint32(u)>>1) ^ -int32(u&1)
}

// token reads the token at vals[i]: a zigzagged literal and run 0, or
// the zero marker and the length of the zero run starting there. next is
// the index after it.
func token(vals []int32, i int) (u uint64, run, next int) {
	if vals[i] != 0 {
		return zigzag(vals[i]), 0, i + 1
	}
	next = i + 1
	for next < len(vals) && vals[next] == 0 && uint64(next-i) < maxRun {
		next++
	}
	return 0, next - i, next
}

// interrupts reports whether a token after a run of the given length is
// an after-run literal, coded under kb as k-1.
func interrupts(run uint64) bool { return run > 0 && run < maxRun }

// riceEncode appends the Rice-coded form of vals to dst: the two
// parameter bytes, chosen from one histogram pass over the tokens, then
// the codes.
func riceEncode(dst []byte, vals []int32) []byte {
	var after, interrupted, runs riceHist
	for i, prev := 0, 0; i < len(vals); {
		u, run, next := token(vals, i)
		if interrupts(uint64(prev)) {
			interrupted.add(u - 1)
		} else {
			after.add(u)
		}
		if run > 0 {
			runs.add(uint64(run - 1))
		}
		i, prev = next, run
	}
	ka, kb, kr := after.best(), interrupted.best(), runs.best()
	w := bitWriter{dst: append(dst, byte(ka<<4|kb), byte(kr<<4))}
	for i, prev := 0, 0; i < len(vals); {
		u, run, next := token(vals, i)
		if interrupts(uint64(prev)) {
			w.rice(u-1, kb)
		} else {
			w.rice(u, ka)
		}
		if run > 0 {
			w.rice(uint64(run-1), kr)
		}
		i, prev = next, run
	}
	return w.flush()
}

// vertRefs is what a vertical-mode plane's decoder keeps of the
// residuals it has read to find a run's reference: which columns of
// the row being read and of the row above hold a nonzero residual, a
// bit each of cur and above, and each column's latest nonzero residual.
type vertRefs struct {
	cur, above []uint64
	val        []int32
}

// reset readies r for a plane width values wide, before its first row.
func (r *vertRefs) reset(width int) {
	n := (width + 63) / 64
	if cap(r.val) < width {
		r.val = make([]int32, width)
		r.cur, r.above = make([]uint64, n), make([]uint64, n)
	}
	r.cur, r.above = r.cur[:n], r.above[:n]
	clear(r.cur)
	clear(r.above)
}

// nextRow moves r to the next row: the one read so far is above it.
// A row is a few words, so it clears them in a loop, not by a call.
func (r *vertRefs) nextRow() {
	r.cur, r.above = r.above, r.cur
	for i := 0; i < len(r.cur); i++ {
		r.cur[i] = 0
	}
}

// set records v, nonzero, as the residual at column x of the row being
// read.
func (r *vertRefs) set(x int, v int32) {
	r.cur[x>>6] |= 1 << (x & 63)
	r.val[x] = v
}

// first returns the first column in [x0, x1) whose bit in row is set,
// or -1.
func first(row []uint64, x0, x1 int) int {
	for x0 < x1 {
		if word := row[x0>>6] >> (x0 & 63); word != 0 {
			if c := x0 + bits.TrailingZeros64(word); c < x1 {
				return c
			}
			return -1
		}
		x0 = x0 | 63 + 1
	}
	return -1
}

// ref returns the column of the reference of a run starting at column
// x of the row being read, or -1 if it has none: the first of the
// positions after the run's start, within a row of it, whose neighbour
// above holds a nonzero residual — columns after x in the row above,
// then, unless the row is the plane's last, columns before x in the
// run's own row.
func (r *vertRefs) ref(x, width int, last bool) int {
	if c := first(r.above, x+1, width); c >= 0 || last {
		return c
	}
	return first(r.cur, 0, x)
}

// riceLen is the length in bits of u's code under parameter k.
func riceLen(u uint64, k uint) uint64 {
	if q := u >> k; q < riceCap {
		return q + 1 + uint64(k)
	}
	return riceCap + 1 + riceEscapeBits
}

// riceHist counts the values one parameter codes: small ones one by
// one, and the rest by what they cost under each parameter.
type riceHist struct {
	small [riceLiteralHist]uint64
	large [riceMaxK + 1]uint64 // bits of the values past small, by k
	top   int                  // small[top:] are all 0
}

func (h *riceHist) add(u uint64) {
	if u < riceLiteralHist {
		h.small[u]++
		h.top = max(h.top, int(u)+1)
		return
	}
	for k := range h.large {
		h.large[k] += riceLen(u, uint(k))
	}
}

// best returns the parameter that codes the counted values in the
// fewest bits; the costs are exact, so no other parameter codes them in
// fewer.
func (h *riceHist) best() uint {
	k, _ := h.fit()
	return k
}

// fit returns best's parameter and the bits the counted values take
// under it.
func (h *riceHist) fit() (best uint, bestCost uint64) {
	bestCost = ^uint64(0)
	for k := uint(0); k <= riceMaxK; k++ {
		cost := h.large[k]
		for u, n := range h.small[:h.top] {
			cost += n * riceLen(uint64(u), k)
		}
		if cost < bestCost {
			best, bestCost = k, cost
		}
	}
	return best, bestCost
}

// bitWriter appends bits MSB first to dst.
type bitWriter struct {
	dst []byte
	acc uint64 // the low n bits are pending
	n   uint
}

// put appends the low n bits of v (n <= 56, no bits of v above them).
func (w *bitWriter) put(v uint64, n uint) {
	w.acc = w.acc<<n | v
	w.n += n
	for w.n >= 8 {
		w.n -= 8
		w.dst = append(w.dst, byte(w.acc>>w.n))
	}
}

// rice appends u's code under parameter k.
func (w *bitWriter) rice(u uint64, k uint) {
	if q := u >> k; q < riceCap {
		w.put((1<<(q+1)-2)<<k|u&(1<<k-1), uint(q)+1+k)
		return
	}
	w.put(1<<(riceCap+1)-2, riceCap+1)
	w.put(u, riceEscapeBits)
}

// flush pads the last byte with 0 bits and returns the bytes written.
func (w *bitWriter) flush() []byte {
	if w.n > 0 {
		w.dst = append(w.dst, byte(w.acc<<(8-w.n)))
		w.n = 0
	}
	return w.dst
}

// bitReader reads Rice codes MSB first from src. The bits it has
// loaded are a window, which its methods take and return by value so
// that a decode loop keeps them in registers. Past the end of src it
// loads 0 bits, which decode as short codes; a refill that finds more
// bits consumed than src holds reports the truncation, and end checks
// the rest.
type bitReader struct {
	src  []byte
	off  int // next byte of src to load (may pass len(src))
	head int // parameter bytes before src
}

// window is a reader's loaded bits: n of them, left-aligned in acc.
type window struct {
	acc uint64
	n   uint
}

// riceParams are a segment's parameters as its decode loop applies
// them: the token after a run shorter than maxRun is read under kb and
// biased by bias (1, or 0 in layerRice1, where kb is ka), every other
// token under ka, and run lengths under kr. A vertical-mode plane also
// reads a vertically coded run's end under kd and the literal after it
// under kv.
type riceParams struct {
	ka, kb, kr uint
	bias       uint64
	kd, kv     uint
	vertical   bool
}

// newRiceReader reads the parameter bytes of a segment in Rice layer l.
func newRiceReader(src []byte, l layer) (bitReader, riceParams, error) {
	var p riceParams
	head := 2
	switch {
	case l == layerRice1 && len(src) >= 1:
		head = 1
		p = riceParams{ka: uint(src[0] >> 4), kb: uint(src[0] >> 4), kr: uint(src[0] & 15)}
	case (l == layerRice || l == layerMED || l == layerVert) && len(src) >= 2 && src[1]&15 == 0:
		p = riceParams{ka: uint(src[0] >> 4), kb: uint(src[0] & 15), kr: uint(src[1] >> 4), bias: 1}
	case l == layerVert && len(src) >= 3 && src[1]&15 == 1:
		head = 3
		p = riceParams{ka: uint(src[0] >> 4), kb: uint(src[0] & 15), kr: uint(src[1] >> 4), bias: 1,
			kd: uint(src[2] >> 4), kv: uint(src[2] & 15), vertical: true}
	default:
		return bitReader{}, p, ErrCorrupt
	}
	if max(p.ka, p.kb, p.kr, p.kd, p.kv) > riceMaxK {
		return bitReader{}, p, ErrCorrupt
	}
	return bitReader{src: src[head:], head: head}, p, nil
}

// refill loads bytes into w until at least 56 bits are loaded; it
// reports false once more bits were consumed than src holds. Readers
// call it only when fewer than a code's bits are left, so that it loads
// several bytes at once.
func (r *bitReader) refill(w window) (window, bool) {
	if r.off+8 <= len(r.src) {
		// Bits past the ones counted are the next bytes' own, so a
		// later load ORs the same values into them.
		w.acc |= binary.BigEndian.Uint64(r.src[r.off:]) >> (w.n & 63)
		r.off += int(63-w.n) >> 3
		w.n |= 56
		return w, true
	}
	for w.n <= 56 {
		if r.off < len(r.src) {
			w.acc |= uint64(r.src[r.off]) << (56 - w.n)
		}
		r.off++
		w.n += 8
	}
	return w, 8*r.off-int(w.n) <= 8*len(r.src)
}

// rice reads one code under parameter k. It reports false on a
// truncated stream or an overlong unary part.
func (r *bitReader) rice(w window, k uint) (window, uint64, bool) {
	ok := true
	if w.n < riceMaxCode {
		if w, ok = r.refill(w); !ok {
			return w, 0, false
		}
	}
	w, v, q := w.short(k)
	if q >= riceCap {
		w, v, ok = r.escape(w, q)
	}
	return w, v, ok
}

// short reads a code under parameter k from at least riceMaxCode loaded
// bits and returns its value and its unary part q — unless q is
// riceCap or more, when it reads nothing and the caller escapes.
func (w window) short(k uint) (_ window, v uint64, q uint) {
	q = uint(bits.LeadingZeros64(^w.acc))
	if q < riceCap {
		// Every shift is under 64 (c <= riceMaxCode); the masks let
		// the compiler drop its checks for wider ones.
		c := q + 1 + k
		v = uint64(q)<<(k&63) | w.acc>>((64-c)&63)&(1<<(k&63)-1)
		w.acc <<= c & 63
		w.n -= c
	}
	return w, v, q
}

// escape reads an escaped value after a unary part of q ones.
func (r *bitReader) escape(w window, q uint) (window, uint64, bool) {
	if q > riceCap {
		return w, 0, false
	}
	w.acc <<= riceCap + 1
	w.n -= riceCap + 1
	ok := true
	if w.n < riceEscapeBits {
		if w, ok = r.refill(w); !ok {
			return w, 0, false
		}
	}
	v := w.acc >> (64 - riceEscapeBits)
	w.acc <<= riceEscapeBits
	w.n -= riceEscapeBits
	return w, v, true
}

// end returns the bytes the segment took, its parameter bytes included,
// or ErrCorrupt if its codes ran past the end of src.
func (r *bitReader) end(w window) (int, error) {
	used := 8*r.off - int(w.n)
	if used > 8*len(r.src) {
		return 0, ErrCorrupt
	}
	return r.head + (used+7)/8, nil
}

// decodeSegment reads exactly n values of a segment in layer l from
// src, returning them and the number of bytes consumed.
func decodeSegment(src []byte, n int, l layer) ([]int32, int, error) {
	if l == layerVarint {
		return entropyDecode(src, n)
	}
	return riceDecode(src, n, l)
}

// riceDecode reads exactly n values of a segment in Rice layer l from
// src, returning them and the number of bytes consumed. It fails with
// ErrCorrupt on a parameter out of range, a nonzero spare nibble, a
// truncated stream, an overlong unary part, a literal past 32 bits or a
// run past n.
func riceDecode(src []byte, n int, l layer) ([]int32, int, error) {
	r, p, err := newRiceReader(src, l)
	if err != nil {
		return nil, 0, err
	}
	out := make([]int32, 0, n)
	var w window
	k, bias := p.ka, uint64(0) // the next token's parameter and bias
	for len(out) < n {
		var u uint64
		var ok bool
		if w, u, ok = r.rice(w, k); !ok || u+bias > math.MaxUint32 {
			return nil, 0, ErrCorrupt
		}
		if u += bias; u != 0 {
			out = append(out, unzigzag(u))
			k, bias = p.ka, 0
			continue
		}
		var run uint64
		if w, run, ok = r.rice(w, p.kr); !ok || run >= uint64(n-len(out)) {
			return nil, 0, ErrCorrupt
		}
		out = out[:len(out)+int(run)+1] // make zeroed them
		k, bias = p.kb, p.bias
		if !interrupts(run + 1) {
			k, bias = p.ka, 0
		}
	}
	m, err := r.end(w)
	if err != nil {
		return nil, 0, err
	}
	return out, m, nil
}

// entropyDecode reads exactly n values of the legacy varint layer from
// src, returning them and the number of bytes consumed. It fails with
// ErrCorrupt on malformed input or if src encodes a different count.
func entropyDecode(src []byte, n int) ([]int32, int, error) {
	out := make([]int32, 0, n)
	off := 0
	for len(out) < n {
		k, sz := binary.Uvarint(src[off:])
		if sz <= 0 {
			return nil, 0, ErrCorrupt
		}
		off += sz
		if k == 0 {
			run, sz2 := binary.Uvarint(src[off:])
			// Compared unsigned: a run of 2^63 or more would wrap
			// negative as an int and pass a signed bound.
			if sz2 <= 0 || run == 0 || run > uint64(n-len(out)) {
				return nil, 0, ErrCorrupt
			}
			off += sz2
			for j := uint64(0); j < run; j++ {
				out = append(out, 0)
			}
			continue
		}
		out = append(out, unzigzag(k))
	}
	return out, off, nil
}
