package codec

import "encoding/binary"

// The entropy layer shared by vjpg and vmpg: signed residuals are
// zigzag-mapped to unsigned varints; runs of zeros collapse to a
// zero marker followed by the run length.
//
// Token grammar (uvarint based):
//
//	0, n   — a run of n zero values
//	k > 0  — the single value unzigzag(k)

// zigzag maps signed to unsigned preserving small magnitudes.
func zigzag(v int32) uint64 {
	return uint64(uint32((v << 1) ^ (v >> 31)))
}

// unzigzag inverts zigzag.
func unzigzag(u uint64) int32 {
	return int32(uint32(u)>>1) ^ -int32(u&1)
}

// entropyEncode appends the encoded form of vals to dst and returns
// the extended slice.
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

// entropyDecode reads exactly n values from src, returning them and
// the number of bytes consumed. It fails with ErrCorrupt on malformed
// input or if src encodes a different count.
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
