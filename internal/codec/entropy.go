package codec

import (
	"encoding/binary"
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
// Each plane or segment is Golomb-Rice coded: one header byte holds two
// parameters, the literal one in the high nibble (for the k > 0 tokens
// and the 0 marker) and the run one in the low nibble (for n-1, so a
// run of length 0 cannot be written), each at most riceMaxK. A value u
// under parameter k is written MSB first as u>>k in unary (that many 1
// bits and a 0), then the low k bits of u. A unary part of riceCap or
// more is written as riceCap 1 bits and a 0, the escape, followed by u
// in riceEscapeBits bits; riceCap+1 ones in a row is refused, so no code
// is longer than riceCap+1+riceEscapeBits bits. The segment's last byte
// is padded with 0 bits, so the next one starts byte-aligned.
//
// Streams earlier builds wrote use the byte-varint layer instead (each
// token a uvarint). It is decoded, for stored data, and never written:
// entropyDecode and decodePlaneVarint.

const (
	riceCap         = 24 // unary part at which a code escapes
	riceEscapeBits  = 32 // width of an escaped value
	riceMaxK        = 14 // largest parameter; 15 in either nibble is refused
	riceLiteralHist = 64 // literals below this are costed exactly

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

// riceEncode appends the Rice-coded form of vals to dst: the parameter
// byte, chosen from one histogram pass over the tokens, then the codes.
func riceEncode(dst []byte, vals []int32) []byte {
	var lit, runs riceHist
	for i := 0; i < len(vals); {
		u, run, next := token(vals, i)
		lit.add(u)
		if run > 0 {
			runs.add(uint64(run - 1))
		}
		i = next
	}
	kl, kr := lit.best(), runs.best()
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

// riceLen is the length in bits of u's code under parameter k.
func riceLen(u uint64, k uint) uint64 {
	if q := u >> k; q < riceCap {
		return q + 1 + uint64(k)
	}
	return riceCap + 1 + riceEscapeBits
}

// riceHist counts the values one parameter codes: small ones exactly,
// the rest by bit length with their sum.
type riceHist struct {
	small  [riceLiteralHist]uint64
	n, sum [65]uint64 // by bit length, from largeBits up
}

// largeBits is the bit length of the least value riceHist does not
// count exactly.
var largeBits = bits.Len(riceLiteralHist)

func (h *riceHist) add(u uint64) {
	if u < riceLiteralHist {
		h.small[u]++
		return
	}
	b := bits.Len64(u)
	h.n[b]++
	h.sum[b] += u
}

// best returns the parameter that codes the counted values in the
// fewest bits. A class of large values is costed as if every unary part
// were the class sum's share, which is exact to within one bit a value.
func (h *riceHist) best() uint {
	best, bestCost := uint(0), ^uint64(0)
	for k := uint(0); k <= riceMaxK; k++ {
		var cost uint64
		for u, n := range h.small {
			cost += n * riceLen(uint64(u), k)
		}
		for b := largeBits; b < len(h.n); b++ {
			switch n := h.n[b]; {
			case n == 0:
			case uint64(1)<<(b-1)>>k >= riceCap: // every value escapes
				cost += n * (riceCap + 1 + riceEscapeBits)
			default:
				cost += n*uint64(k+1) + h.sum[b]>>k
			}
		}
		if cost < bestCost {
			best, bestCost = k, cost
		}
	}
	return best
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
	src []byte
	off int // next byte of src to load (may pass len(src))
}

// window is a reader's loaded bits: n of them, left-aligned in acc.
type window struct {
	acc uint64
	n   uint
}

// newRiceReader reads a segment's parameter byte.
func newRiceReader(src []byte) (r bitReader, kl, kr uint, err error) {
	if len(src) == 0 {
		return r, 0, 0, ErrCorrupt
	}
	kl, kr = uint(src[0]>>4), uint(src[0]&15)
	if kl > riceMaxK || kr > riceMaxK {
		return r, 0, 0, ErrCorrupt
	}
	return bitReader{src: src[1:]}, kl, kr, nil
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

// end returns the bytes the segment took, its parameter byte included,
// or ErrCorrupt if its codes ran past the end of src.
func (r *bitReader) end(w window) (int, error) {
	used := 8*r.off - int(w.n)
	if used > 8*len(r.src) {
		return 0, ErrCorrupt
	}
	return 1 + (used+7)/8, nil
}

// riceDecode reads exactly n values of a Rice-coded segment from src,
// returning them and the number of bytes consumed. It fails with
// ErrCorrupt on a parameter out of range, a truncated stream, an
// overlong unary part or a run past n.
func riceDecode(src []byte, n int) ([]int32, int, error) {
	r, kl, kr, err := newRiceReader(src)
	if err != nil {
		return nil, 0, err
	}
	out := make([]int32, 0, n)
	var w window
	for len(out) < n {
		var u uint64
		var ok bool
		if w, u, ok = r.rice(w, kl); !ok {
			return nil, 0, ErrCorrupt
		}
		if u != 0 {
			out = append(out, unzigzag(u))
			continue
		}
		var run uint64
		if w, run, ok = r.rice(w, kr); !ok || run >= uint64(n-len(out)) {
			return nil, 0, ErrCorrupt
		}
		out = out[:len(out)+int(run)+1] // make zeroed them
	}
	m, err := r.end(w)
	if err != nil {
		return nil, 0, err
	}
	return out, m, nil
}

// layerDecoder returns the entropy decoder of the layer data's two-byte
// magic names: riceDecode under magic, entropyDecode under varintMagic,
// and nil under any other.
func layerDecoder(data []byte, magic, varintMagic string) func([]byte, int) ([]int32, int, error) {
	if len(data) < 2 {
		return nil
	}
	switch string(data[:2]) {
	case magic:
		return riceDecode
	case varintMagic:
		return entropyDecode
	}
	return nil
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
