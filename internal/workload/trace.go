package workload

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"timedmedia/internal/durable"
)

// The capture trace is the recorded truth of one live run: every
// request the server saw — including the ones it shed — in completion
// order, with enough detail to re-issue the mutations and check the
// reads. Each frame is durable's length + CRC-32C frame with no
// prefix, behind a file magic:
//
//	"TBMTRC1\n"                              8-byte magic
//	frame := u32 length | u32 crc32c(json) | json
//
// The first frame is the TraceMeta; every later frame is a
// TraceRecord. A torn tail (partial final frame after a crash or
// kill) terminates reading cleanly rather than erroring, mirroring
// the WAL's torn-tail tolerance.

const traceMagic = "TBMTRC1\n"

// maxTraceFrame bounds a single frame so a corrupt length field
// cannot balloon an allocation.
const maxTraceFrame = 64 << 20

// TraceMeta describes the catalog state a trace was recorded against,
// so replay can verify it is rebuilding from the same starting point.
type TraceMeta struct {
	// Objects is the catalog size when recording started.
	Objects int `json:"objects"`
	// Seq is the journal sequence when recording started.
	Seq uint64 `json:"seq"`
	// Epoch is the published epoch when recording started.
	Epoch uint64 `json:"epoch"`
}

// TraceRecord is one captured request/response pair.
type TraceRecord struct {
	// Seq is the record's position in the trace (completion order,
	// 1-based).
	Seq uint64 `json:"seq"`
	// AtNs is the request's start offset from the beginning of
	// recording.
	AtNs int64 `json:"at_ns"`
	// Method and Path (including the query string) identify the
	// request; Body is the request body for non-GET methods.
	Method string `json:"method"`
	Path   string `json:"path"`
	Body   []byte `json:"body,omitempty"`
	// RouteName is the matched route ("object", "query", ...), empty
	// when the request never matched one (404s, shed requests).
	RouteName string `json:"route,omitempty"`
	// Status is the recorded response status; ErrCode is the stable
	// error code when the response was a JSON error envelope.
	Status  int    `json:"status"`
	ErrCode string `json:"err_code,omitempty"`
	// Digest is the normalized response-body digest (see BodyDigest).
	Digest string `json:"digest"`
	// Epoch is the epoch the response was served from (its ETag),
	// zero when the response carried none.
	Epoch uint64 `json:"epoch,omitempty"`
	// Shed marks a request rejected by the load-shedding 503 path:
	// part of the workload truth, but it never reached a handler, so
	// replay re-issues nothing for it.
	Shed bool `json:"shed,omitempty"`
	// LatencyNs is the recorded service time. Replay reports never
	// include it, keeping them byte-deterministic.
	LatencyNs int64 `json:"latency_ns"`
}

// Recorder appends trace frames to a writer. Record is safe for
// concurrent use — requests complete concurrently — and assigns the
// completion-order sequence numbers itself.
type Recorder struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	seq uint64
	err error
}

// NewRecorder writes the magic and meta frame and returns a recorder
// appending to w. If w is also an io.Closer, Close closes it.
func NewRecorder(w io.Writer, meta TraceMeta) (*Recorder, error) {
	r := &Recorder{w: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		r.c = c
	}
	if _, err := r.w.WriteString(traceMagic); err != nil {
		return nil, fmt.Errorf("workload: trace header: %w", err)
	}
	if err := r.writeFrame(meta); err != nil {
		return nil, err
	}
	return r, nil
}

// CreateTrace opens (truncating) a trace file and returns a recorder
// on it.
func CreateTrace(path string, meta TraceMeta) (*Recorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	rec, err := NewRecorder(f, meta)
	if err != nil {
		f.Close()
		return nil, err
	}
	return rec, nil
}

func (r *Recorder) writeFrame(v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("workload: trace encode: %w", err)
	}
	if _, err := durable.WriteFrame(r.w, nil, body); err != nil {
		return fmt.Errorf("workload: trace write: %w", err)
	}
	return nil
}

// Record appends one record, assigning its sequence number. The first
// write error sticks: later calls return it without writing, and
// Close reports it.
func (r *Recorder) Record(rec TraceRecord) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	r.seq++
	rec.Seq = r.seq
	if err := r.writeFrame(&rec); err != nil {
		r.err = err
	}
	return r.err
}

// Close flushes and closes the underlying file if the recorder owns
// one.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ferr := r.w.Flush(); ferr != nil && r.err == nil {
		r.err = ferr
	}
	if r.c != nil {
		if cerr := r.c.Close(); cerr != nil && r.err == nil {
			r.err = cerr
		}
		r.c = nil
	}
	return r.err
}

// ReadTrace parses a trace file into its meta and records. A torn
// final frame is tolerated (the records before it are returned); a
// corrupt frame in the middle — bad CRC with more data following — is
// an error.
func ReadTrace(path string) (TraceMeta, []TraceRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return TraceMeta{}, nil, fmt.Errorf("workload: %w", err)
	}
	return parseTrace(data)
}

func parseTrace(data []byte) (TraceMeta, []TraceRecord, error) {
	var meta TraceMeta
	if len(data) < len(traceMagic) || string(data[:len(traceMagic)]) != traceMagic {
		return meta, nil, errors.New("workload: not a trace file (bad magic)")
	}
	data = data[len(traceMagic):]
	var records []TraceRecord
	first := true
	for {
		body, rest, err := durable.DecodeFrame(data, maxTraceFrame)
		if err == io.EOF || errors.Is(err, durable.ErrFrameTorn) ||
			errors.Is(err, durable.ErrFrameCRC) && len(rest) == 0 {
			break // the end, or a torn tail: a partial or corrupt final frame
		}
		if err != nil {
			return meta, nil, fmt.Errorf("workload: trace frame %d: %w", len(records)+1, err)
		}
		if first {
			if err := json.Unmarshal(body, &meta); err != nil {
				return meta, nil, fmt.Errorf("workload: trace meta: %w", err)
			}
			first = false
		} else {
			var rec TraceRecord
			if err := json.Unmarshal(body, &rec); err != nil {
				return meta, nil, fmt.Errorf("workload: trace record %d: %w", len(records)+1, err)
			}
			records = append(records, rec)
		}
		data = rest
	}
	if first {
		return meta, nil, errors.New("workload: trace has no meta frame")
	}
	return meta, records, nil
}
