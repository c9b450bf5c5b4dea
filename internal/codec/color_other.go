//go:build !amd64

package codec

// rgbBlocks converts no pairs where there is no vector kernel: rgbPairs
// converts them all.
func rgbBlocks(out, ys, us, vs []byte) int { return 0 }
