package durable

// The snapshot container: a sequence of independently checksummed
// chunks behind an io.Writer/io.Reader pair, so encoders stream
// straight into the file and decoders stream straight out of it, and
// memory use is bounded by the chunk size, not the catalog size.
//
// Container layout:
//
//	magic     [8]byte  "TBMSNAP2"
//	version   uint32   2
//	chunk*             data chunks
//	trailer            end-of-stream marker
//
// Data chunk: one frame of the frame codec (frame.go) with no prefix:
//
//	length uint32   payload length (1..MaxChunkLen)
//	crc    uint32   CRC-32C over the payload
//	payload [length]byte
//
// Trailer:
//
//	length uint32   0 (end marker)
//	crc    uint32   CRC-32C over the big-endian concatenation of every
//	                data chunk's crc field, in order — a cheap whole-
//	                stream integrity summary
//	total  uint64   total payload bytes across all chunks
//
// A torn write (crash mid-stream) leaves a file without a valid
// trailer and fails decode with ErrCorrupt; the atomic-rename write
// path (ReplaceFile) means readers only ever see complete containers
// anyway, and the .bak holds the previous generation. A file that does
// not open with the magic is ErrCorrupt like any other damage.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

var streamMagic = [8]byte{'T', 'B', 'M', 'S', 'N', 'A', 'P', '2'}

// StreamVersion is the chunked container format version.
const StreamVersion = 2

// DefaultChunkLen is the chunk size ChunkWriter buffers to: large
// enough to amortize checksum and syscall cost, small enough that a
// snapshot stream never holds more than ~1 MiB beyond the file cache.
const DefaultChunkLen = 1 << 20

// MaxChunkLen bounds a chunk so a corrupt length field cannot drive an
// unbounded allocation during decode.
const MaxChunkLen = 64 << 20

const streamHeaderLen = 8 + 4 // magic + version

// streamHeader is the container header: the magic, then StreamVersion.
var streamHeader = binary.BigEndian.AppendUint32(streamMagic[:8:8], StreamVersion)

// ChunkWriter frames a byte stream into checksummed chunks on an
// underlying writer. Close flushes the final partial chunk and writes
// the trailer; it does not close or sync the underlying writer.
type ChunkWriter struct {
	w       io.Writer
	buf     []byte
	crcs    []byte // big-endian crc of each flushed chunk, for the trailer
	total   uint64
	started bool
	err     error
}

// NewChunkWriter starts a container on w with the default chunk
// size. The header is written lazily on the first Write (or Close), so
// constructing a writer has no side effects.
func NewChunkWriter(w io.Writer) *ChunkWriter {
	return &ChunkWriter{w: w, buf: make([]byte, 0, DefaultChunkLen)}
}

// header returns the container header once and nothing after: it goes
// out as the first chunk's prefix, or, for an empty payload, before the
// trailer.
func (cw *ChunkWriter) header() []byte {
	if cw.started {
		return nil
	}
	cw.started = true
	return streamHeader
}

// Write implements io.Writer.
func (cw *ChunkWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n := len(p)
	for len(p) > 0 {
		room := cap(cw.buf) - len(cw.buf)
		if room == 0 {
			if err := cw.flushChunk(); err != nil {
				cw.err = err
				return 0, err
			}
			room = cap(cw.buf)
		}
		if room > len(p) {
			room = len(p)
		}
		cw.buf = append(cw.buf, p[:room]...)
		p = p[room:]
	}
	return n, nil
}

func (cw *ChunkWriter) flushChunk() error {
	if len(cw.buf) == 0 {
		return nil
	}
	crc, err := WriteFrame(cw.w, cw.header(), cw.buf)
	if err != nil {
		return err
	}
	cw.crcs = binary.BigEndian.AppendUint32(cw.crcs, crc)
	cw.total += uint64(len(cw.buf))
	cw.buf = cw.buf[:0]
	return nil
}

// Close flushes buffered data and writes the trailer. The container is
// not a valid stream until Close returns nil.
func (cw *ChunkWriter) Close() error {
	if cw.err != nil {
		return cw.err
	}
	if err := cw.flushChunk(); err != nil {
		cw.err = err
		return err
	}
	tr := append(make([]byte, 0, streamHeaderLen+FrameHeaderLen+8), cw.header()...)
	tr = binary.BigEndian.AppendUint32(tr, 0)
	tr = binary.BigEndian.AppendUint32(tr, crc32.Checksum(cw.crcs, castagnoli))
	tr = binary.BigEndian.AppendUint64(tr, cw.total)
	if _, err := cw.w.Write(tr); err != nil {
		cw.err = err
		return err
	}
	cw.err = errors.New("durable: chunk writer closed")
	return nil
}

// ChunkReader decodes a container from an underlying reader,
// validating each chunk's checksum as it streams. The caller must read
// to io.EOF to know the stream was complete: a missing or corrupt
// trailer surfaces as ErrCorrupt, never as a clean EOF.
type ChunkReader struct {
	r     io.Reader
	hdr   [FrameHeaderLen]byte
	buf   []byte // the last chunk read, reused for the next
	chunk []byte // current chunk, unread remainder
	crcs  []byte
	total uint64
	err   error // sticky: io.EOF once the trailer has validated
}

// NewChunkReader validates the container header on r and returns a
// reader over its payload. A stream that is too short for the header
// or does not open with the magic is ErrCorrupt.
func NewChunkReader(r io.Reader) (*ChunkReader, error) {
	var hdr [streamHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: truncated container header", ErrCorrupt)
		}
		return nil, fmt.Errorf("durable: %w", err)
	}
	if [8]byte(hdr[:8]) != streamMagic {
		return nil, fmt.Errorf("%w: no container magic, file opens with %q", ErrCorrupt, hdr[:8])
	}
	if v := binary.BigEndian.Uint32(hdr[8:]); v != StreamVersion {
		return nil, fmt.Errorf("%w: unknown stream version %d", ErrCorrupt, v)
	}
	return &ChunkReader{r: r}, nil
}

// Read implements io.Reader.
func (cr *ChunkReader) Read(p []byte) (int, error) {
	if cr.err != nil {
		return 0, cr.err
	}
	for len(cr.chunk) == 0 {
		if err := cr.nextChunk(); err != nil {
			cr.err = err
			return 0, err
		}
	}
	n := copy(p, cr.chunk)
	cr.chunk = cr.chunk[n:]
	return n, nil
}

func (cr *ChunkReader) nextChunk() error {
	// A clean EOF is damage too: the stream must end with its trailer.
	if err := ReadFrameHeader(cr.r, cr.hdr[:]); err != nil {
		return fmt.Errorf("%w: chunk header: %v", ErrCorrupt, err)
	}
	n, crc := frameFields(cr.hdr[:])
	if n == 0 {
		// Trailer: validate the crc-of-crcs and the total length.
		var rest [8]byte
		if _, err := io.ReadFull(cr.r, rest[:]); err != nil {
			return fmt.Errorf("%w: truncated trailer: %v", ErrCorrupt, err)
		}
		if got := crc32.Checksum(cr.crcs, castagnoli); got != crc {
			return fmt.Errorf("%w: stream checksum %08x, want %08x", ErrCorrupt, got, crc)
		}
		if total := binary.BigEndian.Uint64(rest[:]); total != cr.total {
			return fmt.Errorf("%w: stream length %d, trailer says %d", ErrCorrupt, cr.total, total)
		}
		return io.EOF
	}
	data, err := ReadFramePayload(cr.r, cr.hdr[:], MaxChunkLen, cr.buf)
	if err != nil {
		return fmt.Errorf("%w: chunk: %v", ErrCorrupt, err)
	}
	cr.buf, cr.chunk = data, data
	cr.crcs = binary.BigEndian.AppendUint32(cr.crcs, crc)
	cr.total += uint64(n)
	return nil
}

// WriteStreamSnapshot durably replaces path with a container whose
// payload is produced by write, keeping the previous generation as
// path.bak (see ReplaceFile), without ever holding the payload in
// memory.
func WriteStreamSnapshot(path string, write func(io.Writer) error) error {
	return ReplaceFile(path, true, func(f io.Writer) error {
		bw := bufio.NewWriterSize(f, 1<<16)
		cw := NewChunkWriter(bw)
		if err := write(cw); err != nil {
			return err
		}
		if err := cw.Close(); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
		return nil
	})
}

// OpenSnapshotReader opens the container at path for streaming decode.
// The caller must Close the returned reader and must reach io.EOF for
// the stream to be fully validated.
func OpenSnapshotReader(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	cr, err := NewChunkReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return struct {
		io.Reader
		io.Closer
	}{cr, f}, nil
}
