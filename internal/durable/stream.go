package durable

// The snapshot container: a sequence of independently checksummed
// chunks behind an io.Writer/io.Reader pair, so encoders stream
// straight into the file and decoders stream straight out of it, and
// memory use is bounded by the chunk size, not the catalog size.
//
// Container layout:
//
//	magic     [8]byte  "TBMSNAP2"
//	version   uint32   3 (version 2 is still read, never written)
//	chunk*             data chunks
//	trailer            end-of-stream marker
//
// Data chunk: one frame of the frame codec (frame.go) with no prefix:
//
//	length uint32   stored length (1..MaxChunkLen)
//	crc    uint32   CRC-32C over the stored bytes
//	stored [length]byte
//
// In version 3 the stored bytes are one raw DEFLATE stream (RFC 1951,
// compress/flate at chunkLevel) of at most DefaultChunkLen payload
// bytes; in version 2 they are the payload itself.
//
// Trailer:
//
//	length uint32   0 (end marker)
//	crc    uint32   CRC-32C over the big-endian concatenation of every
//	                data chunk's crc field, in order — in version 3
//	                preceded by the 12 header bytes, so a flipped version
//	                field is damage, not the other version
//	total  uint64   total payload bytes across all chunks (inflated)
//
// The frame CRC covers what is stored, so damage is caught before
// anything is inflated. A version 3 chunk that does not inflate, has
// bytes after its DEFLATE stream or inflates past DefaultChunkLen is
// ErrCorrupt: a hostile chunk cannot make the reader hold more than one
// chunk's payload.
//
// A torn write (crash mid-stream) leaves a file without a valid
// trailer and fails decode with ErrCorrupt; the atomic-rename write
// path (ReplaceFile) means readers only ever see complete containers
// anyway. A file that does not open with the magic is ErrCorrupt like
// any other damage.

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

var streamMagic = [8]byte{'T', 'B', 'M', 'S', 'N', 'A', 'P', '2'}

// StreamVersion is the container version ChunkWriter writes: DEFLATE-
// packed chunks.
const StreamVersion = 3

// rawStreamVersion is the previous version, whose chunks store the
// payload as it is. ChunkReader still reads it, for directories and
// primaries written before version 3.
const rawStreamVersion = 2

// chunkLevel is the one DEFLATE level a chunk is written at: BestSpeed
// packs the seeded browse catalog 5.4× at a quarter of the default
// level's compression time (DESIGN §3).
const chunkLevel = flate.BestSpeed

// DefaultChunkLen is the payload size ChunkWriter puts in one chunk,
// and the most a version 3 chunk may inflate to: large enough to
// amortize checksum, compression and syscall cost, small enough that a
// snapshot stream never holds more than ~1 MiB beyond the file cache.
const DefaultChunkLen = 1 << 20

// MaxChunkLen bounds a chunk's stored length so a corrupt length field
// cannot drive an unbounded allocation during decode.
const MaxChunkLen = 64 << 20

const streamHeaderLen = 8 + 4 // magic + version

// streamHeader is the container header: the magic, then StreamVersion.
var streamHeader = binary.BigEndian.AppendUint32(streamMagic[:8:8], StreamVersion)

// chainCRC folds one chunk's crc, big-endian, into the trailer's running
// CRC-32C: four table steps, where crc32.Update would move the four
// bytes to the heap.
func chainCRC(sum, crc uint32) uint32 {
	sum = ^sum
	for shift := 24; shift >= 0; shift -= 8 {
		sum = castagnoli[byte(sum)^byte(crc>>shift)] ^ sum>>8
	}
	return ^sum
}

// ChunkWriter deflates a byte stream into checksummed chunks on an
// underlying writer. Close flushes the final partial chunk and writes
// the trailer; it does not close or sync the underlying writer.
type ChunkWriter struct {
	w       io.Writer
	limit   int           // payload bytes per chunk
	zw      *flate.Writer // deflates the current chunk into stored
	stored  bytes.Buffer  // the current chunk's stored bytes, reused
	n       int           // payload bytes in the current chunk
	sum     uint32        // running trailer checksum: header, then chunk crcs
	total   uint64
	started bool
	err     error
}

// NewChunkWriter starts a container on w with the default chunk
// size. The header is written lazily on the first chunk (or Close), so
// constructing a writer has no side effects.
func NewChunkWriter(w io.Writer) *ChunkWriter {
	return newChunkWriter(w, DefaultChunkLen)
}

func newChunkWriter(w io.Writer, limit int) *ChunkWriter {
	return &ChunkWriter{w: w, limit: limit, sum: crc32.Checksum(streamHeader, castagnoli)}
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
	if cw.zw == nil {
		cw.stored.Grow(frameStep)
		cw.zw, cw.err = flate.NewWriter(&cw.stored, chunkLevel)
	}
	n := len(p)
	for len(p) > 0 && cw.err == nil {
		if cw.n == cw.limit {
			cw.err = cw.flushChunk()
			continue
		}
		k := min(len(p), cw.limit-cw.n)
		_, cw.err = cw.zw.Write(p[:k])
		cw.n += k
		p = p[k:]
	}
	if cw.err != nil {
		return 0, cw.err
	}
	return n, nil
}

func (cw *ChunkWriter) flushChunk() error {
	if cw.n == 0 {
		return nil
	}
	if err := cw.zw.Close(); err != nil {
		return err
	}
	crc, err := WriteFrame(cw.w, cw.header(), cw.stored.Bytes())
	if err != nil {
		return err
	}
	cw.sum = chainCRC(cw.sum, crc)
	cw.total += uint64(cw.n)
	cw.n = 0
	cw.stored.Reset()
	cw.zw.Reset(&cw.stored)
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
	tr = binary.BigEndian.AppendUint32(tr, cw.sum)
	tr = binary.BigEndian.AppendUint64(tr, cw.total)
	if _, err := cw.w.Write(tr); err != nil {
		cw.err = err
		return err
	}
	cw.err = errors.New("durable: chunk writer closed")
	return nil
}

// ChunkReader decodes a container from an underlying reader,
// validating each chunk's checksum as it streams and inflating it. The
// caller must read to io.EOF to know the stream was complete: a missing
// or corrupt trailer surfaces as ErrCorrupt, never as a clean EOF.
type ChunkReader struct {
	r       io.Reader
	deflate bool // version 3
	hdr     [FrameHeaderLen]byte
	buf     []byte        // the last chunk's stored bytes, reused for the next
	src     bytes.Reader  // over buf, what zr inflates
	zr      io.ReadCloser // one inflater, Reset per chunk
	out     []byte        // the inflated chunk, reused for the next
	chunk   []byte        // current chunk's payload, unread remainder
	sum     uint32
	total   uint64
	err     error // sticky: io.EOF once the trailer has validated
}

// NewChunkReader validates the container header on r and returns a
// reader over its payload. A stream that is too short for the header,
// does not open with the magic or names a version other than 2 or 3 is
// ErrCorrupt.
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
	cr := &ChunkReader{r: r}
	switch v := binary.BigEndian.Uint32(hdr[8:]); v {
	case StreamVersion:
		cr.deflate, cr.sum = true, crc32.Checksum(hdr[:], castagnoli)
	case rawStreamVersion:
	default:
		return nil, fmt.Errorf("%w: unknown stream version %d", ErrCorrupt, v)
	}
	return cr, nil
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
		if cr.sum != crc {
			return fmt.Errorf("%w: stream checksum %08x, want %08x", ErrCorrupt, cr.sum, crc)
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
	cr.buf = data
	cr.sum = chainCRC(cr.sum, crc)
	if cr.deflate {
		if data, err = cr.inflate(data); err != nil {
			return fmt.Errorf("%w: chunk at payload byte %d: %v", ErrCorrupt, cr.total, err)
		}
	}
	cr.chunk = data
	cr.total += uint64(len(data))
	return nil
}

// inflate decodes one version 3 chunk into cr.out, which grows as the
// payload arrives — 64 KiB, then one chunk and a byte — and is kept for
// the next chunk. The spare byte is how a chunk that inflates past
// DefaultChunkLen is caught after reading one byte too many, not the
// rest of it.
func (cr *ChunkReader) inflate(stored []byte) ([]byte, error) {
	cr.src.Reset(stored)
	if cr.zr == nil {
		cr.zr = flate.NewReader(&cr.src)
	} else if err := cr.zr.(flate.Resetter).Reset(&cr.src, nil); err != nil {
		return nil, err
	}
	out := cr.out[:0]
	for {
		if len(out) == cap(out) {
			grow := frameStep
			if cap(out) >= frameStep {
				grow = DefaultChunkLen + 1
			}
			out = append(make([]byte, 0, grow), out...)
		}
		m, err := cr.zr.Read(out[len(out):cap(out)])
		out = out[:len(out)+m]
		if len(out) > DefaultChunkLen {
			return nil, fmt.Errorf("inflates past %d bytes", DefaultChunkLen)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	cr.out = out
	if cr.src.Len() != 0 {
		return nil, fmt.Errorf("%d bytes after the DEFLATE stream", cr.src.Len())
	}
	return out, nil
}

// WriteStreamSnapshot durably replaces path with a container whose
// payload is produced by write (see ReplaceFile), without ever holding
// the payload in memory.
func WriteStreamSnapshot(path string, write func(io.Writer) error) error {
	return ReplaceFile(path, func(f io.Writer) error {
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
