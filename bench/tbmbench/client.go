package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// requestTimeout bounds one request; a timeout is a failed op.
const requestTimeout = 30 * time.Second

// span is one node of a request's span tree as the client saw it.
// Offsets are nanoseconds from the start of the slice.
type span struct {
	Request string `json:"request"` // X-Request-ID, shared by the spans of one request
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Op      string `json:"op,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// result is one op's outcome.
type result struct {
	kind  opKind
	lat   time.Duration
	bytes int64 // body bytes received
	gone  bool  // the one correct answer was 410: counted, but no latency sample
	err   error
}

// client is one closed-loop session: one keep-alive connection, one
// request in flight, the next sent when the reply has been read and
// checked. It speaks HTTP/1.1 over its own socket rather than through
// net/http's Transport: the Transport hands every request to two
// goroutines per connection, which on a two-core box costs the
// generator more CPU than the server spends answering a point read,
// and puts scheduler noise into every latency sample. Replies are
// still parsed by net/http (status line, headers, chunking, trailers).
type client struct {
	host  string // host:port
	conn  net.Conn
	br    *bufio.Reader
	wbuf  []byte
	buf   []byte
	epoch string // newest epoch seen in an ETag; pins the next page read

	traced bool
	t0     time.Time
	spans  []span
}

func newClient(base string, traced bool) *client {
	return &client{
		host:   strings.TrimPrefix(base, "http://"),
		wbuf:   make([]byte, 0, 4096),
		buf:    make([]byte, 0, 1<<20),
		traced: traced,
	}
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// run executes ops in order, appending one result per op.
func (c *client) run(ops []op, t0 time.Time, out []result) []result {
	c.t0 = t0
	for i := range ops {
		out = append(out, c.do(&ops[i]))
	}
	return out
}

// marks are the instants inside one request the span tree is cut at.
type marks struct {
	connected, wrote, firstByte time.Time
}

// roundTrip sends one request and reads the whole reply into c.buf.
func (c *client) roundTrip(method, path, body string) (*http.Response, marks, error) {
	var m marks
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.host, requestTimeout)
		if err != nil {
			return nil, m, err
		}
		c.conn, c.br = conn, bufio.NewReaderSize(conn, 64<<10)
	}
	m.connected = time.Now()
	c.conn.SetDeadline(m.connected.Add(requestTimeout))
	w := append(c.wbuf[:0], method...)
	w = append(append(append(w, ' '), path...), " HTTP/1.1\r\nHost: "...)
	w = append(append(w, c.host...), "\r\n"...)
	if body != "" {
		w = append(w, "Content-Type: application/json\r\nContent-Length: "...)
		w = append(strconv.AppendInt(w, int64(len(body)), 10), "\r\n"...)
	}
	w = append(append(w, "\r\n"...), body...)
	c.wbuf = w
	if _, err := c.conn.Write(w); err != nil {
		c.close()
		return nil, m, err
	}
	m.wrote = time.Now()
	if _, err := c.br.Peek(1); err != nil {
		c.close()
		return nil, m, err
	}
	m.firstByte = time.Now()
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return nil, m, err
	}
	c.buf, err = readAll(resp.Body, c.buf[:0])
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	if err != nil {
		return nil, m, fmt.Errorf("read body: %w", err)
	}
	return resp, m, nil
}

func (c *client) do(o *op) result {
	path := o.Path
	if o.Kind == opQueryPage && c.epoch != "" {
		path += "&epoch=" + c.epoch
	}
	start := time.Now()
	resp, m, err := c.roundTrip(o.Method, path, o.Body)
	end := time.Now()
	res := result{kind: o.Kind, lat: end.Sub(start), bytes: int64(len(c.buf)), gone: o.Status == http.StatusGone}
	if err != nil {
		res.bytes, res.err = 0, fmt.Errorf("%s %s: %w", opNames[o.Kind], o.Path, err)
		return res
	}
	if c.traced {
		c.record(o, resp.Header.Get("X-Request-ID"), start, end, m)
	}
	if o.Method == http.MethodGet && resp.StatusCode == http.StatusOK {
		if tag := strings.Trim(resp.Header.Get("ETag"), `"`); tag != "" {
			c.epoch = tag
		}
	}
	res.err = check(o, resp, c.buf)
	return res
}

// record stores the request's span tree: request → connect | send |
// first_byte | body. On a kept-alive connection connect is empty.
func (c *client) record(o *op, id string, start, end time.Time, m marks) {
	at := func(t time.Time) int64 { return t.Sub(c.t0).Nanoseconds() }
	c.spans = append(c.spans,
		span{Request: id, Name: "request", Op: opNames[o.Kind], StartNs: at(start), EndNs: at(end)},
		span{Request: id, Name: "connect", Parent: "request", StartNs: at(start), EndNs: at(m.connected)},
		span{Request: id, Name: "send", Parent: "request", StartNs: at(m.connected), EndNs: at(m.wrote)},
		span{Request: id, Name: "first_byte", Parent: "request", StartNs: at(m.wrote), EndNs: at(m.firstByte)},
		span{Request: id, Name: "body", Parent: "request", StartNs: at(m.firstByte), EndNs: at(end)},
	)
}

func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// Reply shapes: only the fields a check reads.
type objectReply struct {
	Name  string `json:"name"`
	Class string `json:"class"`
}

// listShape reads a list reply's row count and total without
// building it: a page of a hundred summaries is 30 KB, and decoding
// every one into structs would make the generator, not the server, the
// busiest process on a two-core box. The body is still checked to be
// well-formed JSON; rows are counted by their "name" key, which every
// summary carries exactly once (no seeded attribute is called name).
func listShape(body []byte) (rows, total int, err error) {
	if !json.Valid(body) {
		return 0, 0, fmt.Errorf("bad JSON")
	}
	if !bytes.HasPrefix(body, []byte(`{"objects":[`)) {
		return 0, 0, fmt.Errorf("not a list envelope")
	}
	rows = bytes.Count(body, []byte(`"name":"`))
	i := bytes.LastIndex(body, []byte(`"total":`))
	if i < 0 {
		return 0, 0, fmt.Errorf("no total")
	}
	rest := body[i+len(`"total":`):]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	total, err = strconv.Atoi(string(rest[:end]))
	return rows, total, err
}

type expandReply struct {
	Name     string `json:"name"`
	Elements int    `json:"elements"`
}

type batchReply struct {
	IDs     []uint64      `json:"ids"`
	Objects []objectReply `json:"objects"`
}

type errorReply struct {
	Error struct {
		Code string `json:"code"`
	} `json:"error"`
}

// check judges a reply against the op's expectation: the one correct
// status, then the body's shape and content.
func check(o *op, resp *http.Response, body []byte) error {
	if resp.StatusCode != o.Status {
		snip := body
		if len(snip) > 160 {
			snip = snip[:160]
		}
		return fmt.Errorf("%s %s: status %d, want %d: %s", opNames[o.Kind], o.Path, resp.StatusCode, o.Status, snip)
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s %s: %s", opNames[o.Kind], o.Path, fmt.Sprintf(format, args...))
	}
	if o.Status == http.StatusGone {
		var e errorReply
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code == "" {
			return fail("410 without an error envelope")
		}
		return nil
	}
	switch o.Kind {
	case opObject, opAsOf, opWrite:
		var r objectReply
		if err := json.Unmarshal(body, &r); err != nil {
			return fail("bad JSON: %v", err)
		}
		if r.Name != o.Name || r.Class == "" {
			return fail("got object %q class %q, want %q", r.Name, r.Class, o.Name)
		}
	case opQuerySel, opAsOfQuery, opQueryPage:
		rows, total, err := listShape(body)
		if err != nil {
			return fail("%v", err)
		}
		if rows != o.Rows {
			return fail("%d rows, want %d", rows, o.Rows)
		}
		if o.Kind == opQueryPage {
			if total < o.Total {
				return fail("total %d, want at least %d", total, o.Total)
			}
		} else if total != o.Rows {
			return fail("total %d, want %d", total, o.Rows)
		}
	case opStream:
		if e := resp.Trailer.Get("X-Stream-Error"); e != "" {
			return fail("stream truncated: %s", e)
		}
		elems, payload := 0, int64(0)
		for rest := body; len(rest) > 0; elems++ {
			if len(rest) < 8 {
				return fail("torn length prefix after %d elements", elems)
			}
			n := binary.BigEndian.Uint64(rest)
			if uint64(len(rest)-8) < n {
				return fail("element %d claims %d bytes, %d left", elems, n, len(rest)-8)
			}
			payload += int64(n)
			rest = rest[8+n:]
		}
		if elems != o.Elems || payload != o.Bytes {
			return fail("%d elements / %d bytes, want %d / %d", elems, payload, o.Elems, o.Bytes)
		}
	case opElement:
		if int64(len(body)) != o.Bytes {
			return fail("%d bytes, want %d", len(body), o.Bytes)
		}
	case opExpand:
		var r expandReply
		if err := json.Unmarshal(body, &r); err != nil {
			return fail("bad JSON: %v", err)
		}
		if r.Name != o.Name || r.Elements != o.Elems {
			return fail("got %q with %d elements, want %q with %d", r.Name, r.Elements, o.Name, o.Elems)
		}
	case opBatch:
		var r batchReply
		if err := json.Unmarshal(body, &r); err != nil {
			return fail("bad JSON: %v", err)
		}
		if len(r.IDs) != o.Rows || len(r.Objects) != o.Rows {
			return fail("%d ids / %d objects, want %d", len(r.IDs), len(r.Objects), o.Rows)
		}
		for i, obj := range r.Objects {
			if obj.Name != o.Writes[i] {
				return fail("item %d is %q, want %q", i, obj.Name, o.Writes[i])
			}
		}
	case opTimeline, opLineage:
		var r []json.RawMessage
		if err := json.Unmarshal(body, &r); err != nil {
			return fail("bad JSON: %v", err)
		}
		if len(r) == 0 || (o.Rows > 0 && len(r) != o.Rows) {
			return fail("%d entries, want %s", len(r), wantRows(o.Rows))
		}
	}
	return nil
}

func wantRows(n int) string {
	if n > 0 {
		return strconv.Itoa(n)
	}
	return "at least 1"
}
