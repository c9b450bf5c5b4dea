// Package repl implements WAL-shipping replication for the catalog: a
// primary serves its journal as an HTTP feed, followers bootstrap from
// the primary's checkpoint chain and tail the feed through the catalog's
// idempotent replay path, re-journaling the identical bytes locally so
// a promoted follower's log is byte-compatible with the primary's
// acked prefix.
//
// Feed endpoints (mounted by the primary):
//
//	GET /v1/repl/snapshot       the checkpoint chain as it is: per
//	                            file an 'F' frame, then the file's
//	                            bytes; X-Repl-Seq names the seq the
//	                            chain ends at
//	GET /v1/repl/wal?from_seq=N long-poll stream of RPF1 frames:
//	                            journal records with seq > N, heartbeats
//	                            carrying the primary's seq and byte
//	                            backlog, and a gone marker when
//	                            compaction outran the follower
//	                            (a too-old from_seq is 410 up front)
//	GET /v1/repl/blobs          JSON list of payload files
//	GET /v1/repl/blob/{id}      one payload's bytes
//
// Frame format ("RPF1"): durable's length + CRC-32C frame behind a
// 21-byte prefix.
//
//	magic   [4]byte  "RPF1"
//	type    byte     'R' record / 'H' heartbeat / 'E' gone / 'F' file
//	seq     uint64   record seq; primary seq on 'H'; checkpoint seq on 'E'
//	backlog uint64   'H': durable WAL bytes not yet shipped; 'F': the
//	                 file bytes that follow the frame
//	length  uint32   payload length ('R'; the file name on 'F'; 0 otherwise)
//	crc     uint32   CRC-32C over the payload
//	payload [length]byte
//
// The CRC covers the payload only: type, seq and backlog are not
// checked. An unknown type is refused, but one valid type damaged into
// another is not, and a damaged seq or backlog is read as sent. (A
// follower applies the seq inside a record's payload, not the prefix's
// copy.) Covering the prefix would move wire bytes.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"timedmedia/internal/durable"
	"timedmedia/internal/wal"
)

// Frame types.
const (
	TypeRecord    byte = 'R' // one journal record payload
	TypeHeartbeat byte = 'H' // primary's current seq + byte backlog
	TypeGone      byte = 'E' // compaction outran the follower: re-bootstrap
	TypeFile      byte = 'F' // a snapshot's chain file: its name, then its bytes
)

var frameMagic = [4]byte{'R', 'P', 'F', '1'}

const framePrefixLen = 4 + 1 + 8 + 8 // magic + type + seq + backlog

const frameHeaderLen = framePrefixLen + durable.FrameHeaderLen

// MaxFramePayload bounds a record payload; journal records are bounded
// the same way, so anything larger is corruption, not data.
const MaxFramePayload = wal.MaxRecordLen

// ErrBadFrame reports a feed frame that failed framing or checksum
// validation — the reader must drop the connection and resume.
var ErrBadFrame = errors.New("repl: bad feed frame")

// Frame is one feed message.
type Frame struct {
	Type    byte
	Seq     uint64
	Backlog uint64
	Payload []byte
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	var prefix [framePrefixLen]byte
	copy(prefix[:], frameMagic[:])
	prefix[4] = f.Type
	binary.BigEndian.PutUint64(prefix[5:], f.Seq)
	binary.BigEndian.PutUint64(prefix[13:], f.Backlog)
	_, err := durable.WriteFrame(w, prefix[:], f.Payload)
	return err
}

// ReadFrame reads and validates one frame from r. io.EOF at a frame
// boundary passes through unchanged (the stream ended); anything else
// — a tear inside a frame, a bad magic or type, a length over
// MaxFramePayload, a checksum mismatch — is ErrBadFrame.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [frameHeaderLen]byte
	err := durable.ReadFrameHeader(r, hdr[:])
	if err == io.EOF {
		return Frame{}, io.EOF
	}
	f := Frame{
		Type:    hdr[4],
		Seq:     binary.BigEndian.Uint64(hdr[5:]),
		Backlog: binary.BigEndian.Uint64(hdr[13:]),
	}
	switch {
	case err != nil:
	case [4]byte(hdr[:4]) != frameMagic:
		err = errors.New("bad magic")
	case f.Type != TypeRecord && f.Type != TypeHeartbeat && f.Type != TypeGone && f.Type != TypeFile:
		err = fmt.Errorf("unknown type %q", f.Type)
	default:
		f.Payload, err = durable.ReadFramePayload(r, hdr[:], MaxFramePayload, nil)
	}
	if err != nil {
		return Frame{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return f, nil
}
