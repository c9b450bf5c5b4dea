package catalog

import (
	"encoding/binary"
	"fmt"
	"slices"

	"timedmedia/internal/blob"
	"timedmedia/internal/compose"
	"timedmedia/internal/core"
)

// The journal record's byte layout; encodeOp, decodeOp and peekOp are
// the only functions that know it, and DESIGN.md ("Journal record
// layout") has the table. Every record opens with the header
//
//	[recordLayout] [kind code] [uvarint Seq] [uvarint ID]
//
// and continues with its kind's fields (a delete has none) in the order
// of encodeOp's switch: a string or byte field behind its uvarint
// length, unsigned integers as uvarints, signed ones as zig-zag varints,
// attributes as a count and then key/value pairs in strictly ascending
// key order — so the bytes are a pure function of the record, whatever
// order a map iterates in. An interpretation's payload stays the gob
// interp.Exported that checkpoints carry (one per ingest); nothing else
// in a record is gob.

// recordLayout is the layout version, the first byte of every record.
// A record that opens with anything else — every record a build from
// before this layout wrote is a gob stream, which cannot open with a
// one-byte message — is refused by name, never guessed at.
const recordLayout byte = 1

// opKinds maps a record's kind code, its second byte, to the kind.
// Code zero is never written.
var opKinds = [...]string{1: opInterp, 2: opNonDerived, 3: opDerived, 4: opMultimedia, 5: opSync, 6: opDelete}

// encodeOp lays rec out as journal bytes: one allocation for the
// record, one more for the sorted keys when it has attributes.
func encodeOp(rec *walOp) ([]byte, error) {
	code := slices.Index(opKinds[:], rec.Kind)
	if code <= 0 {
		return nil, fmt.Errorf("catalog: encode journal record: unknown op %q", rec.Kind)
	}
	// An upper bound, so the appends below never grow b: every byte
	// field, and ten bytes for each integer — at most seven a record, one
	// an input, under eight a component, two an attribute.
	size := 2 + len(rec.Name) + len(rec.Track) + len(rec.Op) + len(rec.Params) + len(rec.Interp) +
		binary.MaxVarintLen64*(7+len(rec.Inputs)+8*len(rec.Comps)+2*len(rec.Attrs))
	for k, v := range rec.Attrs {
		size += len(k) + len(v)
	}
	b := append(make([]byte, 0, size), recordLayout, byte(code))
	b = binary.AppendUvarint(b, rec.Seq)
	b = binary.AppendUvarint(b, uint64(rec.ID))
	switch rec.Kind {
	case opInterp:
		b = binary.AppendUvarint(b, uint64(rec.Blob))
		b = appendBytes(b, rec.Interp)
	case opNonDerived:
		b = appendNameAttrs(b, rec)
		b = binary.AppendUvarint(b, uint64(rec.Blob))
		b = appendBytes(b, rec.Track)
	case opDerived:
		b = appendNameAttrs(b, rec)
		b = appendBytes(b, rec.Op)
		b = binary.AppendUvarint(b, uint64(len(rec.Inputs)))
		for _, in := range rec.Inputs {
			b = binary.AppendUvarint(b, uint64(in))
		}
		b = appendBytes(b, rec.Params)
	case opMultimedia:
		b = appendNameAttrs(b, rec)
		b = binary.AppendVarint(b, rec.TimeNum)
		b = binary.AppendVarint(b, rec.TimeDen)
		b = binary.AppendUvarint(b, uint64(len(rec.Comps)))
		for _, c := range rec.Comps {
			b = binary.AppendUvarint(b, uint64(c.Object))
			b = binary.AppendVarint(b, c.Start)
			if c.Region == nil {
				b = append(b, 0)
				continue
			}
			b = append(b, 1)
			for _, v := range [...]int{c.Region.X, c.Region.Y, c.Region.W, c.Region.H, c.Region.Z} {
				b = binary.AppendVarint(b, int64(v))
			}
		}
	case opSync:
		b = binary.AppendVarint(b, int64(rec.A))
		b = binary.AppendVarint(b, int64(rec.B))
		b = binary.AppendVarint(b, rec.MaxSkew)
	}
	return b, nil
}

func appendBytes[T string | []byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendNameAttrs writes what every adding kind of object record opens
// its body with: the name, then the attributes sorted by key.
func appendNameAttrs(b []byte, rec *walOp) []byte {
	b = appendBytes(b, rec.Name)
	b = binary.AppendUvarint(b, uint64(len(rec.Attrs)))
	if len(rec.Attrs) == 0 {
		return b
	}
	keys := make([]string, 0, len(rec.Attrs))
	for k := range rec.Attrs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = appendBytes(appendBytes(b, k), rec.Attrs[k])
	}
	return b
}

// peekOp reads a record's header and nothing else, allocating nothing:
// the returned record holds Seq, Kind and ID — and Blob for an
// interpretation record, whose body opens with it — and body is what
// decodeOp would go on to read. It is all that routing a record needs:
// the replication feed's seq filter and BLOB prefetch (RecordInfo),
// replay's already-captured and beyond-the-cap skips, a follower's
// duplicate skip.
func peekOp(data []byte) (head walOp, body []byte, err error) {
	if len(data) == 0 || data[0] != recordLayout {
		return walOp{}, nil, fmt.Errorf("%w: record of %d bytes opens with [% x], not with record layout version %d: "+
			"another build wrote this journal and only that build replays it — open the directory with it once more and shut it down cleanly, which leaves no record behind",
			ErrReplay, len(data), data[:min(len(data), 4)], recordLayout)
	}
	r := opReader{b: data[1:]}
	code := r.byte()
	head.Seq, head.ID = r.uvarint(), core.ID(r.uvarint())
	if int(code) < len(opKinds) {
		head.Kind = opKinds[code]
	}
	switch head.Kind {
	case "":
		r.fail("unknown kind code %d", code)
	case opInterp:
		head.Blob = blob.ID(r.uvarint())
	}
	if r.err != nil {
		return walOp{}, nil, r.err
	}
	return head, r.b, nil
}

// decodeOp is encodeOp's inverse. Nothing it returns aliases data; an
// empty attribute set, input list or byte field decodes as nil. Every
// count is checked against the bytes that remain before anything is
// sized by it, and bytes left over after the kind's last field are an
// error: a record either is exactly what encodeOp writes or is refused.
func decodeOp(data []byte) (*walOp, error) {
	head, body, err := peekOp(data)
	if err != nil {
		return nil, err
	}
	rec, r := &head, opReader{b: body}
	switch rec.Kind {
	case opInterp:
		rec.Interp = r.bytes()
	case opNonDerived:
		r.nameAttrs(rec)
		rec.Blob = blob.ID(r.uvarint())
		rec.Track = string(r.span())
	case opDerived:
		r.nameAttrs(rec)
		rec.Op = string(r.span())
		if n := r.count(1); n > 0 { // an input is a byte at least
			rec.Inputs = make([]core.ID, n)
			for i := range rec.Inputs {
				rec.Inputs[i] = core.ID(r.uvarint())
			}
		}
		rec.Params = r.bytes()
	case opMultimedia:
		r.nameAttrs(rec)
		rec.TimeNum, rec.TimeDen = r.varint(), r.varint()
		if n := r.count(3); n > 0 { // a component is an ID, a start and the region flag at least
			rec.Comps = make([]savedComponent, n)
			for i := range rec.Comps {
				c := &rec.Comps[i]
				c.Object, c.Start = core.ID(r.uvarint()), r.varint()
				switch flag := r.byte(); {
				case flag == 1:
					c.Region = &compose.Region{X: r.int(), Y: r.int(), W: r.int(), H: r.int(), Z: r.int()}
				case flag != 0:
					r.fail("component %d: region flag %d", i, flag)
				}
			}
		}
	case opSync:
		rec.A, rec.B, rec.MaxSkew = r.int(), r.int(), r.varint()
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d bytes after the last field", len(r.b))
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w (%s record, seq %d)", r.err, rec.Kind, rec.Seq)
	}
	return rec, nil
}

// opReader consumes a record's bytes front to back. The first failure
// sticks: every later read returns zero and the caller checks err once.
type opReader struct {
	b   []byte
	err error
}

func (r *opReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: record: %s", ErrReplay, fmt.Sprintf(format, args...))
	}
	r.b = nil
}

func (r *opReader) byte() byte {
	if len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *opReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong integer")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *opReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong integer")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a varint that must fit the platform's int.
func (r *opReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// count reads an item count and refuses one the remaining bytes cannot
// hold at minBytes an item — before the caller sizes anything by it.
func (r *opReader) count(minBytes int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.fail("length or count %d exceeds the %d bytes that remain", n, len(r.b))
		return 0
	}
	return int(n)
}

// span reads a length-prefixed field and returns it as a view of the
// record, for the caller to copy.
func (r *opReader) span() []byte {
	n := r.count(1)
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

// bytes reads a length-prefixed byte field as a copy, nil when empty.
func (r *opReader) bytes() []byte {
	return append([]byte(nil), r.span()...)
}

func (r *opReader) nameAttrs(rec *walOp) {
	rec.Name = string(r.span())
	n := r.count(2) // a pair is two lengths at least
	if n == 0 {
		return
	}
	rec.Attrs = make(map[string]string, n)
	for i, prev := 0, ""; i < n && r.err == nil; i++ {
		k, v := string(r.span()), string(r.span())
		if i > 0 && k <= prev {
			r.fail("attribute keys out of order: %q after %q", k, prev)
		}
		rec.Attrs[k], prev = v, k
	}
}
