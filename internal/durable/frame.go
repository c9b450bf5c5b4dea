package durable

// The frame codec. A WAL1 record, a TBMSNAP2 chunk, the TBMMANI1
// manifest, an RPF1 feed message and a TBMTRC1 trace frame are each a
// format's own prefix (possibly empty) and then one frame:
//
//	length  uint32   payload length, big-endian
//	crc     uint32   CRC-32C (Castagnoli) over the payload only
//	payload [length]byte
//
// A format keeps its prefix, its length bound and its failure policy
// (DESIGN §3, "Frame codec"): it maps io.EOF (a clean end before a
// frame), ErrFrameTorn, ErrFrameTooLong and ErrFrameCRC to its errors.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// FrameHeaderLen is the length and CRC fields that follow a prefix.
const FrameHeaderLen = 4 + 4

// Frame decode outcomes besides io.EOF.
var (
	ErrFrameTorn    = errors.New("durable: torn frame")
	ErrFrameTooLong = errors.New("durable: frame length over bound")
	ErrFrameCRC     = errors.New("durable: frame checksum mismatch")
)

// A reader allocates frameStep before a payload's bytes arrive, and
// frameGrowth times what it holds each time that fills: no more than
// about frameGrowth times what has arrived, in few allocations.
const frameStep, frameGrowth = 64 << 10, 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func appendFrameHeader(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
}

// AppendFrame appends prefix and the frame of payload to dst, growing
// dst at most once.
func AppendFrame(dst, prefix, payload []byte) []byte {
	if need := len(dst) + len(prefix) + FrameHeaderLen + len(payload); need > cap(dst) {
		dst = append(make([]byte, 0, need), dst...)
	}
	return append(appendFrameHeader(append(dst, prefix...), payload), payload...)
}

// WriteFrame writes prefix and the frame of payload to w: prefix,
// length and CRC in one write, then the payload, uncopied, in another
// (none when it is empty). It returns the payload's CRC.
func WriteFrame(w io.Writer, prefix, payload []byte) (uint32, error) {
	hdr := appendFrameHeader(append(make([]byte, 0, len(prefix)+FrameHeaderLen), prefix...), payload)
	if _, err := w.Write(hdr); err != nil {
		return 0, err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return 0, err
		}
	}
	_, crc := frameFields(hdr)
	return crc, nil
}

// frameFields returns the length and CRC at the end of hdr.
func frameFields(hdr []byte) (n, crc uint32) {
	h := hdr[len(hdr)-FrameHeaderLen:]
	return binary.BigEndian.Uint32(h), binary.BigEndian.Uint32(h[4:])
}

// ReadFrameHeader fills hdr — the caller's prefix length plus
// FrameHeaderLen — from r, for the caller to check the prefix before
// ReadFramePayload. It returns io.EOF if r ends before hdr's first byte.
func ReadFrameHeader(r io.Reader, hdr []byte) error {
	_, err := io.ReadFull(r, hdr)
	if err != nil && err != io.EOF {
		err = fmt.Errorf("%w: header: %v", ErrFrameTorn, err)
	}
	return err
}

// ReadFramePayload reads and checks the payload hdr announces. A length
// over max is refused before anything is read. The payload lands in
// buf if it fits; otherwise it is allocated as its bytes arrive,
// exactly sized when it is at most 64 KiB.
func ReadFramePayload(r io.Reader, hdr []byte, max uint32, buf []byte) ([]byte, error) {
	n, crc := frameFields(hdr)
	if n > max {
		return nil, fmt.Errorf("%w: %d bytes, bound %d", ErrFrameTooLong, n, max)
	}
	size := int(n)
	if size > cap(buf) {
		buf = make([]byte, 0, min(size, frameStep))
	}
	buf = buf[:0]
	for len(buf) < size {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(size, frameGrowth*cap(buf))), buf...)
		}
		m, err := io.ReadFull(r, buf[len(buf):min(size, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, fmt.Errorf("%w: %d of %d payload bytes: %v", ErrFrameTorn, len(buf), size, err)
		}
	}
	return buf, checkCRC(buf, crc)
}

// DecodeFrame splits the frame at the front of data (prefix already
// consumed) into its payload, which aliases data, and the bytes after
// it. Empty data is io.EOF. rest is also set on ErrFrameCRC, so a
// caller can tell a damaged last frame from one with data behind it.
func DecodeFrame(data []byte, max uint32) (payload, rest []byte, err error) {
	if len(data) == 0 {
		return nil, nil, io.EOF
	}
	if len(data) < FrameHeaderLen {
		return nil, nil, fmt.Errorf("%w: %d header bytes", ErrFrameTorn, len(data))
	}
	n, crc := frameFields(data[:FrameHeaderLen])
	if n > max {
		return nil, nil, fmt.Errorf("%w: %d bytes, bound %d", ErrFrameTooLong, n, max)
	}
	data = data[FrameHeaderLen:]
	if uint64(len(data)) < uint64(n) {
		return nil, nil, fmt.Errorf("%w: %d of %d payload bytes", ErrFrameTorn, len(data), n)
	}
	return data[:n], data[n:], checkCRC(data[:n], crc)
}

func checkCRC(payload []byte, want uint32) error {
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return fmt.Errorf("%w: %08x, header says %08x", ErrFrameCRC, got, want)
	}
	return nil
}
