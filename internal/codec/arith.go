package codec

import (
	"encoding/binary"
	"math/bits"
)

// layerArith: a vjpg frame's three planes coded by one adaptive binary
// range coder, LZMA's (11-bit probabilities, each moved toward the bit
// it saw by a shift of its distance), over the residuals a layerVert
// frame holds — the same predictor, bias state and reconstruction, so
// the same pixels. The models are reset at each plane's start, and a
// model's adaptation is fast at first and slows as it sees more bits
// (arithRate). Each residual is coded under a context of the residuals
// already coded around it, as JBIG and CALIC condition theirs (Wu and
// Memon, IEEE Trans. Commun. 1997): which of five causal neighbours are
// nonzero — left, above-left, above, above-right and the one right of
// that, a neighbour outside the plane counting as 0.
//
// Where the left, above or above-right residual is nonzero (pixel
// mode), a flag says whether the residual is nonzero, under that
// pattern and whether the left and above residuals' magnitudes sum past
// 1; a nonzero one's magnitude and sign follow. Elsewhere (run mode) the
// residuals from there up to the stretch's end — the next column whose
// above or above-right residual is nonzero (stretchEnd), or the row's
// end — are coded at once: a flag under the stretch's length says
// whether they are all 0, and if not, the offset of the first nonzero
// one follows as an Exp-Golomb code with adaptive prefix bins (offset),
// then its magnitude and sign, under the contexts of an all-zero
// neighbourhood. A run therefore never crosses a row.
//
// A magnitude m is coded in unary, m-1 ones and a zero, each bin under
// a context of the neighbours' magnitudes (magContext); after
// arithUnary ones the rest, m-1-arithUnary, follows in arithEscapeBits
// equiprobable bits, and a magnitude past arithMaxMag, which no byte
// plane's residual reaches, is refused. A sign's context is the signs
// of the residuals above and to the left.
//
// The frame's body is the coder's bytes, without the first byte LZMA's
// encoder writes, which is always 0. The decoder reads exactly the
// bytes the encoder wrote: a frame whose coder reads past its body is
// refused, and so is one whose first code word is 2^32-1, which no
// encoder writes.

// prob is an adaptive binary model: p, the probability in 1/arithOne
// that the next bit is 0, and n, the bits it has seen, capped at 15,
// which pick the shift it adapts by.
type prob struct {
	p int16
	n uint8
}

// newProb is a model that has seen nothing: one half.
var newProb = prob{p: arithOne / 2}

const (
	arithBits = 11
	arithOne  = 1 << arithBits
	arithTop  = 1 << 24 // the range is renormalized below this
	arithEdge = 15      // a model's p stays in [arithEdge, arithOne-arithEdge]

	arithUnary      = 14  // magnitude bins before the escape
	arithEscapeBits = 8   // width of an escaped magnitude's rest
	arithMaxMag     = 255 // largest magnitude: |residual| of a byte plane at q = 1
	arithMagCtx     = 6   // magnitude contexts
	arithMagBins    = 4   // bins with their own model; later ones share the last
	arithRunCtx     = 9   // run flag contexts, by the stretch length's bit length
	arithOffBins    = 16  // offset prefix bins: a stretch is under 2^16 long
)

// arithRate is the shift a model adapts by after seeing n bits: a new
// model moves halfway toward its first bit, and from the 14th on by a
// sixteenth.
var arithRate = [16]uint8{1, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4}

// adapt moves p toward bit b, which it has just coded: by a shift of
// its distance, rounded down, to arithOne for a 0 and to arithEdge for a
// 1. A 1 never moves p below arithEdge, and a 0 never above
// arithOne-arithEdge: at a shift of 4 a move from there rounds to 0,
// and fewer than 13 bits, all a model sees at smaller shifts, move it
// no higher than 1960 (TestArithRateBounds). So a bit leaves at least
// 2^13·arithEdge > 2^16 of a renormalized range, and one
// renormalization step restores it.
func (p *prob) adapt(b uint32) {
	target := int16(arithOne) - int16(b)*(arithOne-arithEdge)
	p.p += (target - p.p) >> arithRate[p.n&15]
	p.n += 1 - (p.n+1)>>4
}

// arithModels are a plane's models.
type arithModels struct {
	zero [64]prob // pixel mode's flag, by nzPattern and bigNeighbours
	run  [arithRunCtx]prob
	off  [arithOffBins]prob
	mag  [arithMagCtx][arithMagBins]prob
	sign [9]prob
}

// reset readies m for a plane: every model new.
func (m *arithModels) reset() {
	for i := range m.zero {
		m.zero[i] = newProb
	}
	for i := range m.run {
		m.run[i] = newProb
	}
	for i := range m.off {
		m.off[i] = newProb
	}
	for i := range m.mag {
		for j := range m.mag[i] {
			m.mag[i][j] = newProb
		}
	}
	for i := range m.sign {
		m.sign[i] = newProb
	}
}

// nzPattern is pixel mode's flag context: a bit for each nonzero one of
// a residual's left, above-left, above, above-right and above-right+1
// neighbours.
func nzPattern(w, nw, n, ne, nee int32) int {
	c := 0
	if w != 0 {
		c |= 1
	}
	if nw != 0 {
		c |= 2
	}
	if n != 0 {
		c |= 4
	}
	if ne != 0 {
		c |= 8
	}
	if nee != 0 {
		c |= 16
	}
	return c
}

// bigNeighbours is the sixth bit of pixel mode's flag context: set when
// the left and above residuals' magnitudes sum past 1.
func bigNeighbours(w, n int32) int {
	if abs32(w)+abs32(n) > 1 {
		return 32
	}
	return 0
}

// magContext is a magnitude's context: the sum of the left and above
// neighbours' magnitudes and half the diagonal ones', in classes: 0, 1,
// 2, 3–4, 5–8 and more.
func magContext(w, nw, n, ne int32) int {
	s := abs32(w) + abs32(n) + (abs32(nw)+abs32(ne)+1)>>1
	return int(magClass[min(s, 9)])
}

var magClass = [10]uint8{0, 1, 2, 3, 3, 4, 4, 4, 4, 5}

// signContext is a sign's context: the signs of the residuals above
// and to the left, each 0, 1 or 2 for zero, positive or negative.
func signContext(w, n int32) int {
	return 3*sign3(n) + sign3(w)
}

// sign3 is 0 for 0, 1 for a positive v and 2 for a negative one.
func sign3(v int32) int {
	return int(uint32(-v)>>31 | uint32(v)>>31<<1)
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// runContext is a run flag's context: the bit length of the stretch's
// length n, capped.
func runContext(n int) int {
	return min(bits.Len(uint(n)), arithRunCtx-1)
}

// arithRows is what a layerArith plane's coder keeps of the residuals
// it has coded: the row above, nil on the plane's first row, and the
// row being coded, column x at x+1 with two more zeros past the end,
// each residual an int8 held to [-127, 127], which changes none of its
// contexts; and each row's nonzero columns as a bitset. The rows take
// turns in bufs and nz; a plane of one row never allocates the second.
type arithRows struct {
	above, cur     []byte
	aboveNZ, curNZ []uint64
	bufs           [2][]byte
	nz             [2][]uint64
	i              int // cur is bufs[i]
}

// reset readies r for a plane width values wide, before its first row.
func (r *arithRows) reset(width int) {
	r.i = 0
	r.take(width)
	r.above, r.aboveNZ = nil, nil
}

// take makes bufs[i] and nz[i] the row being coded, cleared.
func (r *arithRows) take(width int) {
	n, words := width+3, (width+63)/64
	if cap(r.bufs[r.i]) < n {
		r.bufs[r.i] = make([]byte, n)
	}
	if cap(r.nz[r.i]) < words {
		r.nz[r.i] = make([]uint64, words)
	}
	r.cur, r.curNZ = r.bufs[r.i][:n], r.nz[r.i][:words]
	clear(r.cur)
	clear(r.curNZ)
}

// zeros returns n zero bytes: the row above a plane's first row, as
// decodeArithRow reads it. Planes up to arithZeroRow-3 wide share one
// array; a wider one takes the buffer its second row would.
func (r *arithRows) zeros(n int) []byte {
	if n <= len(arithZeroRow) {
		return arithZeroRow[:n]
	}
	if cap(r.bufs[1]) < n {
		r.bufs[1] = make([]byte, n)
	}
	z := r.bufs[1][:n]
	clear(z)
	return z
}

var arithZeroRow [4096]byte

// nextRow moves r to the next row: the one coded so far is above it.
func (r *arithRows) nextRow() {
	r.above, r.aboveNZ = r.cur, r.curNZ
	r.i ^= 1
	r.take(len(r.above) - 3)
}

// set records v, nonzero, as the residual at column x of the row being
// coded.
func (r *arithRows) set(x int, v int32) {
	r.cur[x+1] = byte(int8(max(-127, min(v, 127))))
	r.curNZ[x>>6] |= 1 << (x & 63)
}

// neighbours returns the residuals left of column x, above-left of it,
// above it, above-right and right of that.
func (r *arithRows) neighbours(x int) (w, nw, n, ne, nee int32) {
	w = int32(int8(r.cur[x]))
	if a := r.above; a != nil {
		nw, n, ne, nee = int32(int8(a[x])), int32(int8(a[x+1])), int32(int8(a[x+2])), int32(int8(a[x+3]))
	}
	return w, nw, n, ne, nee
}

// stretchEnd returns the end of the stretch that starts at column x in
// run mode: the next column whose above or above-right residual is
// nonzero — one short of the first nonzero column of the row above from
// x+2 on — or width.
func stretchEnd(aboveNZ []uint64, x, width int) int {
	if aboveNZ == nil {
		return width
	}
	if c := first(aboveNZ, x+2, width); c >= 0 {
		return c - 1
	}
	return width
}

// rangeEncoder is LZMA's range encoder, appending to dst. low holds a
// carry in bit 32; cache is the last byte not yet written, followed by
// pending-1 bytes of 0xff, all of which a carry still changes.
type rangeEncoder struct {
	dst     []byte
	low     uint64
	rng     uint32
	cache   byte
	pending int
	started bool // the always-0 first byte has been dropped
}

func newRangeEncoder(dst []byte) rangeEncoder {
	return rangeEncoder{dst: dst, rng: 0xffffffff, pending: 1}
}

// bit codes b, 0 or 1, under p, and adapts p.
func (e *rangeEncoder) bit(p *prob, b uint32) {
	bound := (e.rng >> arithBits) * uint32(p.p)
	if b == 0 {
		e.rng = bound
	} else {
		e.low += uint64(bound)
		e.rng -= bound
	}
	p.adapt(b)
	if e.rng < arithTop {
		e.rng <<= 8
		e.shiftLow()
	}
}

// direct codes the low n bits of v, MSB first, each at probability one
// half.
func (e *rangeEncoder) direct(v uint32, n int) {
	for i := n - 1; i >= 0; i-- {
		e.rng >>= 1
		if v>>i&1 != 0 {
			e.low += uint64(e.rng)
		}
		if e.rng < arithTop {
			e.rng <<= 8
			e.shiftLow()
		}
	}
}

// shiftLow moves low's top byte out: into cache once no carry can reach
// the bytes before it, which are then written, or else onto the pending
// 0xff bytes.
func (e *rangeEncoder) shiftLow() {
	if uint32(e.low) < 0xff000000 || e.low >= 1<<32 {
		carry := byte(e.low >> 32)
		b := e.cache
		for ; e.pending > 0; e.pending-- {
			if e.started {
				e.dst = append(e.dst, b+carry)
			}
			e.started = true
			b = 0xff
		}
		e.cache = byte(e.low >> 24)
	}
	e.pending++
	e.low = e.low & 0x00ffffff << 8
}

// flush writes what is left of low and returns the bytes written.
func (e *rangeEncoder) flush() []byte {
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
	return e.dst
}

// magSign codes v, nonzero, under the contexts of its left (w),
// above-left (nw), above (n) and above-right (ne) neighbours' residuals.
func (e *rangeEncoder) magSign(m *arithModels, v, w, nw, n, ne int32) {
	mag := abs32(v)
	ps := &m.mag[magContext(w, nw, n, ne)]
	i := int32(0)
	for ; i < arithUnary && i+1 < mag; i++ {
		e.bit(&ps[min(i, arithMagBins-1)], 1)
	}
	if i < arithUnary {
		e.bit(&ps[min(i, arithMagBins-1)], 0)
	} else {
		e.direct(uint32(mag-1-arithUnary), arithEscapeBits)
	}
	e.bit(&m.sign[signContext(w, n)], uint32(v)>>31)
}

// offset codes o, the offset of a stretch's first nonzero residual, in
// [0, n): o+1 as an Exp-Golomb code, its prefix (the mantissa's width
// k in unary, cut short at the widest n allows) in adaptive bins and
// its mantissa's k bits direct.
func (e *rangeEncoder) offset(m *arithModels, o, n int) {
	v := uint32(o + 1)
	k := bits.Len32(v) - 1
	for i := 0; i < bits.Len(uint(n))-1; i++ {
		if i == k {
			e.bit(&m.off[i], 0)
			break
		}
		e.bit(&m.off[i], 1)
	}
	e.direct(v, k)
}

// encodeArithPlane codes vals, a plane's residuals width values wide,
// with e under models m, which it resets first; rows is scratch.
func encodeArithPlane(e *rangeEncoder, m *arithModels, rows *arithRows, vals []int32, width int) {
	m.reset()
	rows.reset(width)
	for y0 := 0; y0 < len(vals); y0 += width {
		if y0 > 0 {
			rows.nextRow()
		}
		row := vals[y0 : y0+width]
		for x := 0; x < width; {
			w, nw, n, ne, nee := rows.neighbours(x)
			if w|n|ne != 0 {
				v, flag := row[x], &m.zero[nzPattern(w, nw, n, ne, nee)|bigNeighbours(w, n)]
				if v == 0 {
					e.bit(flag, 0)
					x++
					continue
				}
				e.bit(flag, 1)
				e.magSign(m, v, w, nw, n, ne)
				rows.set(x, v)
				x++
				continue
			}
			end := stretchEnd(rows.aboveNZ, x, width)
			o := 0
			for o < end-x && row[x+o] == 0 {
				o++
			}
			if o == end-x {
				e.bit(&m.run[runContext(end-x)], 0)
				x = end
				continue
			}
			e.bit(&m.run[runContext(end-x)], 1)
			if end-x > 1 {
				e.offset(m, o, end-x)
			}
			x += o
			e.magSign(m, row[x], 0, 0, 0, 0)
			rows.set(x, row[x])
			x++
		}
	}
}

// rangeDecoder is LZMA's range decoder, off bytes into a source past
// its first byte (see layerArith), off counting bytes read past its end
// too, where it reads 0s. Its methods take and return it by value, with
// the source beside it, so that a decode loop keeps it in registers.
type rangeDecoder struct {
	rng, code uint32
	off       int
}

// newRangeDecoder reads the first code word of src. It reports false if
// src is shorter than one or the word is 2^32-1.
func newRangeDecoder(src []byte) (rangeDecoder, bool) {
	if len(src) < 4 {
		return rangeDecoder{}, false
	}
	d := rangeDecoder{rng: 0xffffffff, code: binary.BigEndian.Uint32(src), off: 4}
	return d, d.code != 0xffffffff
}

// refill renormalizes d's range from src: it shifts in the next byte,
// or 0 past the end.
func (d rangeDecoder) refill(src []byte) rangeDecoder {
	d.code <<= 8
	if d.off < len(src) {
		d.code |= uint32(src[d.off])
	}
	d.rng <<= 8
	d.off++
	return d
}

// decide decodes a bit under p and adapts p; the caller renormalizes
// (refill) when the range falls below arithTop. The code word stays
// below the range: the first one is below 2^32-1, and each step keeps
// it so.
func (d rangeDecoder) decide(p *prob) (rangeDecoder, uint32) {
	bound := (d.rng >> arithBits) * uint32(p.p)
	b := uint32(0)
	if d.code >= bound {
		d.rng -= bound
		d.code -= bound
		b = 1
	} else {
		d.rng = bound
	}
	p.adapt(b)
	return d, b
}

// direct decodes n equiprobable bits, MSB first.
func (d rangeDecoder) direct(src []byte, n int) (rangeDecoder, uint32) {
	var v uint32
	for ; n > 0; n-- {
		d.rng >>= 1
		b := uint32(0)
		if d.code >= d.rng {
			d.code -= d.rng
			b = 1
		}
		v = v<<1 | b
		if d.rng < arithTop {
			d = d.refill(src)
		}
	}
	return d, v
}

// magSign decodes a nonzero residual coded as rangeEncoder.magSign
// codes it. It reports false for a magnitude past arithMaxMag.
func (d rangeDecoder) magSign(src []byte, m *arithModels, w, nw, n, ne int32) (rangeDecoder, int32, bool) {
	ps := &m.mag[magContext(w, nw, n, ne)]
	mag, b := int32(1), uint32(1)
	for mag <= arithUnary {
		if d, b = d.decide(&ps[min(mag-1, arithMagBins-1)]); d.rng < arithTop {
			d = d.refill(src)
		}
		if b == 0 {
			break
		}
		mag++
	}
	if mag > arithUnary {
		var rest uint32
		if d, rest = d.direct(src, arithEscapeBits); mag+int32(rest) > arithMaxMag {
			return d, 0, false
		}
		mag += int32(rest)
	}
	if d, b = d.decide(&m.sign[signContext(w, n)]); d.rng < arithTop {
		d = d.refill(src)
	}
	if b != 0 {
		mag = -mag
	}
	return d, mag, true
}

// offset decodes an offset in [0, n) coded as rangeEncoder.offset codes
// it. It reports false for one of n or more.
func (d rangeDecoder) offset(src []byte, m *arithModels, n int) (rangeDecoder, int, bool) {
	k, kmax, b := 0, bits.Len(uint(n))-1, uint32(0)
	for k < kmax {
		if d, b = d.decide(&m.off[k]); d.rng < arithTop {
			d = d.refill(src)
		}
		if b == 0 {
			break
		}
		k++
	}
	d, v := d.direct(src, k)
	o := int(1<<k|v) - 1
	return d, o, o < n
}

// decodeArithPlane reverses encodeArithPlane and the residuals'
// prediction: it decodes a layerArith plane from d, over src, under
// models m into pix, width wide, at quantizer q, through bias, with rows
// as scratch, and returns d as it leaves it. Each row is decoded in two
// passes: its residuals (decodeArithRow), then its pixels, zero
// stretches by the predictor's run path and the nonzero residuals one at
// a time. It refuses, as ErrCorrupt, a stretch offset past the stretch,
// a magnitude past the escape, and a plane whose coder has read past
// src by a row's start; the caller checks that none read past it at the
// end.
func decodeArithPlane(d rangeDecoder, src []byte, m *arithModels, rows *arithRows, pix []byte, width, q int, bias *biasState) (rangeDecoder, error) {
	m.reset()
	rows.reset(width)
	for y0 := 0; y0 < len(pix); y0 += width {
		if d.off > len(src) {
			return d, ErrCorrupt // a truncated frame: refused a row past its end
		}
		if y0 > 0 {
			rows.nextRow()
		}
		row := pix[y0 : y0+width]
		var err error
		if d, err = decodeArithRow(d, src, m, rows, row); err != nil {
			return d, err
		}
		above, left := rowStart(pix, y0, width, bias)
		x, cur := 0, rows.cur
		for i, word := range rows.curNZ {
			for ; word != 0; word &= word - 1 {
				c := i<<6 + bits.TrailingZeros64(word)
				if c > x {
					left = zeroResiduals(row[x:c], above, x, left, layerArith)
				}
				v := int(row[c]) // its magnitude; its sign is cur's
				if int8(cur[c+1]) < 0 {
					v = -v
				}
				pred := predict(left, above, c, layerArith)
				left = reconStep(pred, v, q)
				row[c] = byte(left)
				if bias != nil && above != nil {
					bias.update(c, left-pred)
				}
				x = c + 1
			}
		}
		if x < width {
			zeroResiduals(row[x:], above, x, left, layerArith)
		}
	}
	return d, nil
}

// decodeArithRow decodes the residuals of the row rows is at, width
// len(row): each nonzero one into rows, held to an int8, and its
// magnitude, which an int8 may not hold, into row at its column.
func decodeArithRow(d rangeDecoder, src []byte, m *arithModels, rows *arithRows, row []byte) (rangeDecoder, error) {
	width := len(row)
	ra, rc, aboveNZ := rows.above, rows.cur, rows.aboveNZ
	if ra == nil {
		ra = rows.zeros(len(rc))
	}
	ra, rc = ra[:width+3], rc[:width+3]
	var b uint32
	for x := 0; x < width; {
		w, n, ne := int32(int8(rc[x])), int32(int8(ra[x+1])), int32(int8(ra[x+2]))
		var v int32
		var ok bool
		if w|n|ne != 0 {
			nw, nee := int32(int8(ra[x])), int32(int8(ra[x+3]))
			if d, b = d.decide(&m.zero[nzPattern(w, nw, n, ne, nee)|bigNeighbours(w, n)]); d.rng < arithTop {
				d = d.refill(src)
			}
			if b == 0 {
				x++
				continue
			}
			d, v, ok = d.magSign(src, m, w, nw, n, ne)
		} else {
			end := stretchEnd(aboveNZ, x, width)
			if d, b = d.decide(&m.run[runContext(end-x)]); d.rng < arithTop {
				d = d.refill(src)
			}
			if b == 0 {
				x = end
				continue
			}
			if end-x > 1 {
				var o int
				if d, o, ok = d.offset(src, m, end-x); !ok {
					return d, ErrCorrupt
				}
				x += o
			}
			d, v, ok = d.magSign(src, m, 0, 0, 0, 0)
		}
		if !ok {
			return d, ErrCorrupt
		}
		rc[x+1] = byte(int8(max(-127, min(v, 127))))
		rows.curNZ[x>>6] |= 1 << (x & 63)
		row[x] = byte(abs32(v))
		x++
	}
	return d, nil
}
