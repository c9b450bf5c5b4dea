//go:build !amd64

package codec

// correctBlocks corrects no pixels where there is no vector kernel:
// correct corrects them all.
func correctBlocks(ref, above []byte, corr *[256]int8) int { return 0 }
