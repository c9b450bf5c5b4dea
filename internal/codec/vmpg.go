package codec

import (
	"encoding/binary"
	"fmt"
	"sort"

	"timedmedia/internal/frame"
	"timedmedia/internal/media"
)

// vmpg: the interframe codec. Key frames ("I") are coded intra (like
// vjpg); intermediate frames ("B") are coded as quantized residuals
// against the temporal interpolation of the two reconstructed keys
// that bracket them.
//
// Crucially for the data model, packets are emitted in *decode order*,
// not presentation order: both bracketing keys precede their
// intermediates, reproducing the paper's out-of-order placement
// example — "with a sequence of four elements where the first and
// last are 'keys,' the placement order could be 1,4,2,3."

// VMPGPacket is one encoded element.
type VMPGPacket struct {
	// Data is the encoded bitstream for this frame.
	Data []byte
	// Index is the frame's presentation index (0-based).
	Index int
	// Key marks intraframe-coded key elements.
	Key bool
}

// Desc returns the element descriptor the data model stores for this
// packet — vmpg streams are heterogeneous.
func (p VMPGPacket) Desc() media.ElementDescriptor {
	return media.ElementDescriptor{Key: p.Key}
}

// VMPGEncode compresses frames with keys every gop frames (and at the
// final frame). gop must be >= 1; gop = 1 degenerates to all-key.
func VMPGEncode(frames []*frame.Frame, quantizer, gop int) ([]VMPGPacket, error) {
	if gop < 1 {
		return nil, fmt.Errorf("codec: gop must be >= 1, got %d", gop)
	}
	if len(frames) == 0 {
		return nil, nil
	}
	for i, f := range frames {
		if f.Model != media.ColorRGB || f.Width != frames[0].Width || f.Height != frames[0].Height {
			return nil, fmt.Errorf("%w: frame %d", ErrBadGeometry, i)
		}
	}
	n := len(frames)
	keySet := map[int]bool{0: true, n - 1: true}
	for i := gop; i < n-1; i += gop {
		keySet[i] = true
	}
	keys := make([]int, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Ints(keys)

	// Encode keys and keep their reconstructions in the YUV domain,
	// where intermediates are predicted. Keys stay mean-predicted "VL"
	// frames: a MED key is a third smaller, but the intermediates
	// beside it, which code their residual against it without DPCM,
	// then cost more than the keys (DESIGN.md §2, row 8).
	keyData := make(map[int][]byte, len(keys))
	keyRecon := make(map[int]*frame.Frame, len(keys))
	for _, k := range keys {
		data, err := encodeVJPG(frames[k], quantizer, layerRice)
		if err != nil {
			return nil, err
		}
		rec, err := VJPGDecodeYUV(data)
		if err != nil {
			return nil, err
		}
		keyData[k] = data
		keyRecon[k] = rec
	}

	var packets []VMPGPacket
	emitKey := func(k int) {
		packets = append(packets, VMPGPacket{Data: keyData[k], Index: k, Key: true})
	}
	if len(keys) == 1 {
		emitKey(keys[0])
		return packets, nil
	}
	for gi := 0; gi+1 < len(keys); gi++ {
		k0, k1 := keys[gi], keys[gi+1]
		if gi == 0 {
			emitKey(k0)
		}
		emitKey(k1)
		for i := k0 + 1; i < k1; i++ {
			data, err := encodeIntermediate(frames[i], keyRecon[k0], keyRecon[k1], i-k0, k1-k0, quantizer)
			if err != nil {
				return nil, err
			}
			packets = append(packets, VMPGPacket{Data: data, Index: i})
		}
	}
	return packets, nil
}

// intermediate bitstream: "VM" | u8 quantizer | u16 w | u16 h |
// per-block motion field | YUV-domain residual against the
// motion-compensated prediction, each a Rice-coded segment (see
// entropy.go) ending on a byte boundary. Intermediates earlier builds
// stored open with "VD", both segments Rice coded without run
// interruption, or "VC", both coded as uvarints; they are decoded,
// never written.
//
// Prediction is per 16×16 block (within each YUV plane): the temporal
// interpolation of the bracketing keys, or a motion-shifted block from
// either key, whichever has the lowest absolute error — a scalar
// version of MPEG's bidirectional block motion compensation. The
// motion field is coded as one value per block: 0 for interpolation,
// 1+v for a key-A vector, 1+V+v for a key-B vector (V = vector count).
//
// Residuals are quantized with a dead zone (truncation toward zero):
// key reconstructions carry quantization noise up to ±q/2, and a
// dead-zone quantizer sends that noise to zero instead of spending a
// token on every pixel.

var interMagics = magics{layerRice: "VM", layerRice1: "VD", layerVarint: "VC"}

const (
	mcBlock = 16 // block side in plane pixels
	mcRange = 4  // motion search range in pixels
	mcStep  = 2  // search step
)

func encodeIntermediate(f, recA, recB *frame.Frame, offset, span, quantizer int) ([]byte, error) {
	yuv, err := RGBToYUV422(f)
	if err != nil {
		return nil, err
	}
	interp := interpolate(recA, recB, offset, span)
	pred := frame.New(f.Width, f.Height, media.ColorYUV422)
	var motion []int32
	for pi, p := range yuvPlanes(yuv) {
		ip := yuvPlanes(interp)[pi]
		ap := yuvPlanes(recA)[pi]
		bp := yuvPlanes(recB)[pi]
		op := yuvPlanes(pred)[pi]
		motion = append(motion, predictPlane(p, ip, ap, bp, op)...)
	}
	vals := make([]int32, len(yuv.Pix))
	q := int32(quantizer)
	for i := range yuv.Pix {
		vals[i] = int32(int(yuv.Pix[i])-int(pred.Pix[i])) / q // dead zone
	}
	out := make([]byte, 0, len(yuv.Pix)/16)
	out = append(out, interMagics[layerRice]...)
	out = append(out, byte(quantizer))
	out = binary.BigEndian.AppendUint16(out, uint16(f.Width))
	out = binary.BigEndian.AppendUint16(out, uint16(f.Height))
	out = riceEncode(out, motion)
	return riceEncode(out, vals), nil
}

// mvCount is the number of distinct vectors per reference.
const mvCount = (2*mcRange + 1) * (2*mcRange + 1)

// predictPlane fills dst with the chosen prediction per block and
// returns the motion field values.
func predictPlane(src, interp, keyA, keyB, dst plane) []int32 {
	h := len(src.pix) / src.w
	var field []int32
	for by := 0; by < h; by += mcBlock {
		for bx := 0; bx < src.w; bx += mcBlock {
			bestCode := int32(0)
			bestSAD := blockSAD(src, interp, bx, by, bx, by, h)
			for ref, key := range []plane{keyA, keyB} {
				for dy := -mcRange; dy <= mcRange; dy += mcStep {
					for dx := -mcRange; dx <= mcRange; dx += mcStep {
						sx, sy := bx+dx, by+dy
						if sx < 0 || sy < 0 || sx+mcBlock > src.w || sy+mcBlock > h {
							continue
						}
						// Require a real win to avoid spending motion
						// bits on noise.
						if sad := blockSAD(src, key, bx, by, sx, sy, h); sad+64 < bestSAD {
							bestSAD = sad
							bestCode = mvCode(ref, dx, dy)
						}
					}
				}
			}
			field = append(field, bestCode)
			copyBlock(dst, interp, keyA, keyB, bx, by, bestCode, h)
		}
	}
	return field
}

// mvCode packs a reference selector and motion vector into a nonzero
// int32.
func mvCode(ref, dx, dy int) int32 {
	return int32(1 + ref*mvCount + (dy+mcRange)*(2*mcRange+1) + (dx + mcRange))
}

// mvDecode unpacks a motion code into reference selector and vector.
func mvDecode(code int32) (ref, dx, dy int) {
	v := int(code - 1)
	ref = v / mvCount
	v %= mvCount
	return ref, v%(2*mcRange+1) - mcRange, v/(2*mcRange+1) - mcRange
}

// blockSAD sums absolute differences between the block at (bx,by) in a
// and the block at (sx,sy) in b, clipped to the plane.
func blockSAD(a, b plane, bx, by, sx, sy, h int) int {
	sad := 0
	for y := 0; y < mcBlock; y++ {
		ay, byy := by+y, sy+y
		if ay >= h || byy >= h {
			break
		}
		for x := 0; x < mcBlock; x++ {
			ax, bxx := bx+x, sx+x
			if ax >= a.w || bxx >= b.w {
				break
			}
			d := int(a.pix[ay*a.w+ax]) - int(b.pix[byy*b.w+bxx])
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

// copyBlock writes the selected prediction for one block into dst.
func copyBlock(dst, interp, keyA, keyB plane, bx, by int, code int32, h int) {
	dx, dy := 0, 0
	src := interp
	if code != 0 {
		var ref int
		ref, dx, dy = mvDecode(code)
		src = keyA
		if ref == 1 {
			src = keyB
		}
	}
	for y := 0; y < mcBlock; y++ {
		ty := by + y
		if ty >= h {
			break
		}
		sy := ty + dy
		for x := 0; x < mcBlock; x++ {
			tx := bx + x
			if tx >= dst.w {
				break
			}
			sx := tx + dx
			v := byte(128)
			if sx >= 0 && sy >= 0 && sx < src.w && sy*src.w+sx < len(src.pix) {
				v = src.pix[sy*src.w+sx]
			}
			dst.pix[ty*dst.w+tx] = v
		}
	}
}

// blocksInPlane counts motion-field entries for a plane.
func blocksInPlane(p plane) int {
	h := len(p.pix) / p.w
	return ((p.w + mcBlock - 1) / mcBlock) * ((h + mcBlock - 1) / mcBlock)
}

// decodeIntermediate reconstructs an intermediate frame in the YUV
// domain.
func decodeIntermediate(data []byte, recA, recB *frame.Frame, offset, span int) (*frame.Frame, error) {
	l, ok := layerOf(data, interMagics)
	if len(data) < 7 || !ok {
		return nil, fmt.Errorf("%w: vmpg intermediate header", ErrCorrupt)
	}
	q := int32(data[2])
	w := int(binary.BigEndian.Uint16(data[3:]))
	h := int(binary.BigEndian.Uint16(data[5:]))
	if q < 1 || q > 128 || w != recA.Width || h != recA.Height {
		return nil, fmt.Errorf("%w: vmpg intermediate fields", ErrCorrupt)
	}
	interp := interpolate(recA, recB, offset, span)
	pred := frame.New(w, h, media.ColorYUV422)
	nBlocks := 0
	for _, p := range yuvPlanes(pred) {
		nBlocks += blocksInPlane(p)
	}
	motion, n, err := decodeSegment(data[7:], nBlocks, l)
	if err != nil {
		return nil, err
	}
	// 0 is the interpolation; 1..2·mvCount a vector into key A or B.
	for _, code := range motion {
		if code < 0 || code > 2*mvCount {
			return nil, fmt.Errorf("%w: vmpg motion code %d outside [0, %d]", ErrCorrupt, code, 2*mvCount)
		}
	}
	mi := 0
	for pi, p := range yuvPlanes(pred) {
		ip := yuvPlanes(interp)[pi]
		ap := yuvPlanes(recA)[pi]
		bp := yuvPlanes(recB)[pi]
		ph := len(p.pix) / p.w
		for by := 0; by < ph; by += mcBlock {
			for bx := 0; bx < p.w; bx += mcBlock {
				copyBlock(p, ip, ap, bp, bx, by, motion[mi], ph)
				mi++
			}
		}
	}
	vals, _, err := decodeSegment(data[7+n:], len(pred.Pix), l)
	if err != nil {
		return nil, err
	}
	for i, d := range vals {
		// Reconstruct at the center of the dead-zone bin.
		r := d * q
		switch {
		case d > 0:
			r += q / 2
		case d < 0:
			r -= q / 2
		}
		pred.Pix[i] = clamp8(int(pred.Pix[i]) + int(r))
	}
	return pred, nil
}

// interpolate blends recA and recB with weight offset/span.
func interpolate(recA, recB *frame.Frame, offset, span int) *frame.Frame {
	out := recA.Clone()
	wB := offset
	wA := span - offset
	for i := range out.Pix {
		out.Pix[i] = byte((int(recA.Pix[i])*wA + int(recB.Pix[i])*wB) / span)
	}
	return out
}

// VMPGDecode reconstructs all frames in presentation order from a
// packet list (in any order).
func VMPGDecode(packets []VMPGPacket) ([]*frame.Frame, error) {
	if len(packets) == 0 {
		return nil, nil
	}
	maxIdx := 0
	var keyIdx []int
	keyRecon := map[int]*frame.Frame{} // YUV-domain reconstructions
	for _, p := range packets {
		if p.Index > maxIdx {
			maxIdx = p.Index
		}
		if p.Key {
			rec, err := VJPGDecodeYUV(p.Data)
			if err != nil {
				return nil, err
			}
			keyRecon[p.Index] = rec
			keyIdx = append(keyIdx, p.Index)
		}
	}
	sort.Ints(keyIdx)
	if len(keyIdx) == 0 {
		return nil, fmt.Errorf("%w: no key frames", ErrCorrupt)
	}
	yuvOut := make([]*frame.Frame, maxIdx+1)
	for _, p := range packets {
		if p.Key {
			yuvOut[p.Index] = keyRecon[p.Index]
			continue
		}
		k0, k1, err := bracketingKeys(keyIdx, p.Index)
		if err != nil {
			return nil, err
		}
		f, err := decodeIntermediate(p.Data, keyRecon[k0], keyRecon[k1], p.Index-k0, k1-k0)
		if err != nil {
			return nil, err
		}
		yuvOut[p.Index] = f
	}
	out := make([]*frame.Frame, len(yuvOut))
	for i, f := range yuvOut {
		if f == nil {
			return nil, fmt.Errorf("%w: missing frame %d", ErrCorrupt, i)
		}
		rgb, err := YUV422ToRGB(f)
		if err != nil {
			return nil, err
		}
		out[i] = rgb
	}
	return out, nil
}

// VMPGDecodeFrame decodes the single frame with the given presentation
// index, touching only the packets it depends on (itself plus, for
// intermediates, the two bracketing keys). This is the structural
// asymmetry the paper notes: key elements are needed early, random
// access into interframe video costs more than into intraframe video.
func VMPGDecodeFrame(packets []VMPGPacket, index int) (*frame.Frame, error) {
	var target *VMPGPacket
	var keyIdx []int
	byIndex := map[int]*VMPGPacket{}
	for i := range packets {
		p := &packets[i]
		byIndex[p.Index] = p
		if p.Key {
			keyIdx = append(keyIdx, p.Index)
		}
		if p.Index == index {
			target = p
		}
	}
	if target == nil {
		return nil, fmt.Errorf("%w: frame %d not present", ErrCorrupt, index)
	}
	if target.Key {
		return VJPGDecode(target.Data)
	}
	sort.Ints(keyIdx)
	k0, k1, err := bracketingKeys(keyIdx, index)
	if err != nil {
		return nil, err
	}
	recA, err := VJPGDecodeYUV(byIndex[k0].Data)
	if err != nil {
		return nil, err
	}
	recB, err := VJPGDecodeYUV(byIndex[k1].Data)
	if err != nil {
		return nil, err
	}
	yuv, err := decodeIntermediate(target.Data, recA, recB, index-k0, k1-k0)
	if err != nil {
		return nil, err
	}
	return YUV422ToRGB(yuv)
}

func bracketingKeys(sortedKeys []int, index int) (k0, k1 int, err error) {
	pos := sort.SearchInts(sortedKeys, index)
	if pos == 0 || pos == len(sortedKeys) {
		return 0, 0, fmt.Errorf("%w: no bracketing keys for frame %d", ErrCorrupt, index)
	}
	return sortedKeys[pos-1], sortedKeys[pos], nil
}

// StorageOrder returns the presentation indices of packets in their
// storage order — e.g. [0,3,1,2] for four frames with gop 3, the
// paper's "1,4,2,3" in 0-based form.
func StorageOrder(packets []VMPGPacket) []int {
	out := make([]int, len(packets))
	for i, p := range packets {
		out[i] = p.Index
	}
	return out
}
