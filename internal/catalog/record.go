package catalog

import (
	"encoding/binary"
	"fmt"
	"slices"

	"timedmedia/internal/blob"
	"timedmedia/internal/compose"
	"timedmedia/internal/core"
	"timedmedia/internal/interp"
	"timedmedia/internal/timebase"
)

// The record layout of journal, snapshot and checkpoint records alike;
// only this file knows it, and DESIGN.md ("Journal record layout") has
// the table. A record is the header
//
//	[recordLayout] [kind code] [uvarint Seq] [uvarint ID]
//
// then its kind's fields as codeOp walks them with interp's Coder,
// attributes in strictly ascending key order, so the bytes are a pure
// function of the record whatever order a map iterates in.

// recordLayout is the layout version, the first byte of every record.
// Anything else — layout 1, whose interpretation payload was gob, or
// the gob records before it — is refused by name, never guessed at.
const recordLayout byte = 2

// opKinds maps a record's kind code, its second byte, to the kind.
// Code zero is never written; opCollected is written only in snapshots.
var opKinds = [...]string{1: opInterp, 2: opNonDerived, 3: opDerived, 4: opMultimedia, 5: opSync, 6: opDelete, 7: opCollected}

// encodeOp lays rec out as journal bytes in one allocation.
func encodeOp(rec *walOp) ([]byte, error) {
	// An upper bound: the byte fields, and ten bytes an integer — at most
	// seven a record, one an input, under eight a component, two a pair.
	size := 2 + len(rec.Name) + len(rec.Track) + len(rec.Op) + len(rec.Params) + len(rec.Interp) +
		binary.MaxVarintLen64*(7+len(rec.Inputs)+8*len(rec.Comps)+2*len(rec.Attrs))
	for k, v := range rec.Attrs {
		size += len(k) + len(v)
	}
	return appendOp(make([]byte, 0, size), rec)
}

// appendOp appends rec's bytes to b.
func appendOp(b []byte, rec *walOp) ([]byte, error) {
	code := slices.Index(opKinds[:], rec.Kind)
	if code <= 0 {
		return nil, fmt.Errorf("catalog: encode journal record: unknown op %q", rec.Kind)
	}
	c := interp.Coder{Buf: append(b, recordLayout, byte(code))}
	codeHeader(&c, rec)
	codeOp(&c, rec)
	return c.Buf, c.Err
}

// codeHeader codes Seq, ID and, for an interpretation, the BLOB.
func codeHeader(c *interp.Coder, rec *walOp) {
	interp.Uint(c, &rec.Seq)
	interp.Uint(c, &rec.ID)
	if rec.Kind == opInterp {
		interp.Uint(c, &rec.Blob)
	}
}

// codeOp codes the fields of rec's kind that follow the header.
func codeOp(c *interp.Coder, rec *walOp) {
	switch rec.Kind {
	case opInterp:
		c.Bytes(&rec.Interp)
	case opNonDerived:
		codeNameAttrs(c, rec)
		interp.Uint(c, &rec.Blob)
		c.Str(&rec.Track)
	case opDerived:
		codeNameAttrs(c, rec)
		c.Str(&rec.Op)
		interp.Slice(c, &rec.Inputs, 1, func(id *core.ID) { interp.Uint(c, id) })
		c.Bytes(&rec.Params)
	case opMultimedia:
		codeNameAttrs(c, rec)
		interp.Int(c, &rec.TimeNum, &rec.TimeDen)
		interp.Slice(c, &rec.Comps, 3, func(comp *core.ComponentRef) { // an ID, a start and the region flag at least
			interp.Uint(c, &comp.Object)
			interp.Int(c, &comp.Start)
			placed := comp.Region != nil
			if c.Flags(&placed); placed {
				if c.Dec {
					comp.Region = &compose.Region{}
				}
				rg := comp.Region
				interp.Int(c, &rg.X, &rg.Y, &rg.W, &rg.H, &rg.Z)
			}
		})
	case opSync:
		interp.Int(c, &rec.A, &rec.B)
		interp.Int(c, &rec.MaxSkew)
	}
}

// codeNameAttrs codes what every adding kind of object record opens its
// body with: the name, then the attributes in ascending key order.
func codeNameAttrs(c *interp.Coder, rec *walOp) {
	c.Str(&rec.Name)
	n := c.Count(len(rec.Attrs), 2) // a pair is two lengths at least
	if n == 0 {
		return
	}
	if !c.Dec {
		var few [8]string
		keys := few[:0]
		for k := range rec.Attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			v := rec.Attrs[k]
			c.Str(&k)
			c.Str(&v)
		}
		return
	}
	rec.Attrs = make(map[string]string, n)
	for i, prev := 0, ""; i < n && c.Err == nil; i++ {
		var k, v string
		c.Str(&k)
		c.Str(&v)
		if i > 0 && k <= prev {
			c.Fail("attribute keys out of order: %q after %q", k, prev)
		}
		rec.Attrs[k], prev = v, k
	}
}

// peekOp reads a record's header, allocating nothing, and returns it
// with the body after it: all that routing a record needs — the feed's
// seq filter and BLOB prefetch (RecordInfo), replay's skips, a
// follower's duplicate skip.
func peekOp(data []byte) (head walOp, body []byte, err error) {
	if len(data) == 0 || data[0] != recordLayout {
		return walOp{}, nil, fmt.Errorf("%w: record of %d bytes opens with [% x], not with record layout version %d: "+
			"another build wrote it, and this build reads no other layout",
			ErrReplay, len(data), data[:min(len(data), 4)], recordLayout)
	}
	if len(data) > 1 && int(data[1]) < len(opKinds) {
		head.Kind = opKinds[data[1]]
	}
	c := interp.Coder{Buf: data[min(len(data), 2):], Dec: true}
	if head.Kind == "" {
		c.Fail("unknown kind code %v", data[1:min(len(data), 2)])
	}
	codeHeader(&c, &head)
	if c.Err != nil {
		return walOp{}, nil, fmt.Errorf("%w: record: %v", ErrReplay, c.Err)
	}
	return head, c.Buf, nil
}

// decodeOp is encodeOp's inverse. Nothing it returns aliases data, an
// empty attribute set, input list or byte field decodes as nil, and a
// record is exactly what encodeOp writes or is refused.
func decodeOp(data []byte) (*walOp, error) {
	head, body, err := peekOp(data)
	if err != nil {
		return nil, err
	}
	c := interp.Coder{Buf: body, Dec: true}
	codeOp(&c, &head)
	return &head, end(&c, &head)
}

// end refuses bytes after the last field and names the record (nil: a
// payload head) in a decoding failure.
func end(c *interp.Coder, rec *walOp) error {
	if c.Err == nil && len(c.Buf) != 0 {
		c.Fail("%d bytes after the last field", len(c.Buf))
	}
	switch {
	case c.Err == nil:
		return nil
	case rec == nil:
		return fmt.Errorf("%w: payload head: %v", ErrReplay, c.Err)
	}
	return fmt.Errorf("%w: record: %v (%s record, seq %d)", ErrReplay, c.Err, rec.Kind, rec.Seq)
}

// A snapshot or checkpoint payload is a head and one record per
// version-chain entry (checkpoint.go frames them), each a journal
// record: an object version is the adding record that made it plus
// what apply derives and a retained version must carry (its BLOB's
// interpretation may be gone); a tombstone is a delete record plus the
// chain's name; a registration is its interpruns record; a collected
// BLOB is an opCollected header, the BLOB in the ID field.

// appendVersion appends the record of one entry of an object's version
// chain: obj at seq, or the tombstone of chain id, name when obj is nil.
// It writes nothing to obj, which readers share.
func appendVersion(b []byte, id core.ID, name string, seq uint64, obj *core.Object) ([]byte, error) {
	if obj == nil {
		b, err := appendOp(b, &walOp{Kind: opDelete, Seq: seq, ID: id})
		c := interp.Coder{Buf: b, Err: err}
		c.Str(&name)
		return c.Buf, c.Err
	}
	op := walOp{Seq: seq, ID: obj.ID, Name: obj.Name, Attrs: obj.Attrs}
	switch obj.Class {
	case core.ClassNonDerived:
		op.Kind, op.Blob, op.Track = opNonDerived, obj.Blob, obj.Track
	case core.ClassDerived:
		op.Kind, op.Op, op.Inputs, op.Params = opDerived, obj.Derivation.Op, obj.Derivation.Inputs, obj.Derivation.Params
	case core.ClassMultimedia:
		mm := obj.Multimedia
		op.Kind, op.TimeNum, op.TimeDen, op.Comps = opMultimedia, mm.Time.Num, mm.Time.Den, mm.Components
	}
	b, err := appendOp(b, &op)
	c := interp.Coder{Buf: b, Err: err}
	codeCarried(&c, obj)
	return c.Buf, c.Err
}

// codeCarried codes what a version carries after its adding record.
func codeCarried(c *interp.Coder, obj *core.Object) {
	interp.Int(c, &obj.Kind)
	interp.CodeDescriptor(c, &obj.Desc)
	if obj.Class == core.ClassMultimedia {
		interp.Slice(c, &obj.Multimedia.Syncs, 3, func(s *compose.SyncConstraint) {
			interp.Int(c, &s.A, &s.B)
			interp.Int(c, &s.MaxSkew)
		})
	}
}

// appendInterpVersion appends the record of BLOB id's interpretation
// chain entry at seq: it, or a tombstone when it is nil.
func appendInterpVersion(b []byte, id blob.ID, seq uint64, it *interp.Interpretation) ([]byte, error) {
	rec := walOp{Kind: opCollected, Seq: seq, ID: core.ID(id)}
	if it != nil {
		runs, err := interp.AppendExported(nil, interp.Export(it))
		if err != nil {
			return nil, err
		}
		rec = walOp{Kind: opInterp, Seq: seq, Blob: id, Interp: runs}
	}
	return appendOp(b, &rec)
}

// version is one decoded payload record: the header, the chain's name
// for a tombstone, and the object or interpretation a version carries.
type version struct {
	walOp
	obj *core.Object
	exp *interp.Exported
}

// decodeVersion is appendVersion's and appendInterpVersion's inverse,
// with decodeOp's rules. The object it returns is not yet validated.
func decodeVersion(data []byte) (version, error) {
	head, body, err := peekOp(data)
	if err != nil {
		return version{}, err
	}
	v, c := version{walOp: head}, interp.Coder{Buf: body, Dec: true}
	switch op := &v.walOp; op.Kind {
	case opNonDerived, opDerived, opMultimedia:
		codeOp(&c, op)
		v.obj = &core.Object{ID: op.ID, Name: op.Name, Attrs: op.Attrs}
		switch op.Kind {
		case opNonDerived:
			v.obj.Class, v.obj.Blob, v.obj.Track = core.ClassNonDerived, op.Blob, op.Track
		case opDerived:
			v.obj.Class, v.obj.Derivation = core.ClassDerived, &core.Derivation{Op: op.Op, Inputs: op.Inputs, Params: op.Params}
		case opMultimedia:
			axis, err := timebase.New(op.TimeNum, op.TimeDen)
			if err != nil {
				c.Fail("%v", err)
			}
			v.obj.Class, v.obj.Multimedia = core.ClassMultimedia, &core.MultimediaSpec{Time: axis, Components: op.Comps}
		}
		codeCarried(&c, v.obj)
	case opDelete:
		c.Str(&v.Name)
	case opInterp:
		if c.Bytes(&v.Interp); c.Err == nil {
			if v.exp, err = interp.DecodeExported(v.Interp, v.Blob); err != nil {
				c.Fail("%v", err)
			}
		}
	case opCollected:
	default:
		c.Fail("a %s record is not a version", op.Kind)
	}
	return v, end(&c, &v.walOp)
}

// codeHead codes a payload's head: FromSeq, Seq, NextID, NextBlob, the
// deleted objects and the collected BLOBs (each a count and the IDs),
// VerFloor and NumRecords.
func codeHead(c *interp.Coder, h *streamHead) {
	interp.Uint(c, &h.FromSeq, &h.Seq)
	interp.Uint(c, &h.NextID)
	interp.Uint(c, &h.NextBlob)
	interp.Slice(c, &h.DelObjects, 1, func(id *core.ID) { interp.Uint(c, id) })
	interp.Slice(c, &h.DelInterps, 1, func(id *blob.ID) { interp.Uint(c, id) })
	interp.Uint(c, &h.VerFloor)
	if interp.Int(c, &h.NumRecords); h.NumRecords < 0 {
		c.Fail("%d records", h.NumRecords)
	}
}

// decodeHead reads a head codeHead wrote, with decodeOp's rules.
func decodeHead(data []byte) (streamHead, error) {
	var h streamHead
	c := interp.Coder{Buf: data, Dec: true}
	codeHead(&c, &h)
	return h, end(&c, nil)
}
