package interp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"timedmedia/internal/blob"
	"timedmedia/internal/media"
)

// The record layout's primitives, and the interpretation's and media
// descriptor's layouts (DESIGN.md, "Journal record layout").

// A Coder walks a record's fields in layout order: encoding (Dec false)
// it appends each to Buf, decoding it reads each from the front of Buf,
// so a layout is written down once and its reader cannot disagree with
// its writer. The first failure sticks in Err; decoding, every later
// field reads as zero. Decoded bytes are outside input: every count is
// checked against the bytes left before anything is sized by it, and
// strings and byte fields are copied out of Buf.
type Coder struct {
	Buf []byte
	Dec bool
	Err error
}

// Fail records the first failure.
func (c *Coder) Fail(format string, args ...any) {
	if c.Err == nil {
		c.Err = fmt.Errorf(format, args...)
	}
	c.Buf = nil
}

func (c *Coder) uvarint(v uint64) uint64 {
	if !c.Dec {
		c.Buf = binary.AppendUvarint(c.Buf, v)
		return v
	}
	x, n := binary.Uvarint(c.Buf)
	if n <= 0 {
		c.Fail("truncated or overlong integer")
		return 0
	}
	c.Buf = c.Buf[n:]
	return x
}

// Uint codes each *v as a uvarint. Encoding writes nothing through v,
// so it may walk state that readers share.
func Uint[T ~uint64](c *Coder, vs ...*T) {
	for _, v := range vs {
		if x := c.uvarint(uint64(*v)); c.Dec {
			*v = T(x)
		}
	}
}

// Int codes each *v as a zig-zag varint; decoded, it must fit T.
func Int[T ~int | ~int64](c *Coder, vs ...*T) {
	for _, v := range vs {
		x := int64(*v)
		u := c.uvarint(uint64(x<<1) ^ uint64(x>>63))
		if x = int64(u>>1) ^ -int64(u&1); c.Dec {
			if int64(T(x)) != x {
				c.Fail("integer %d overflows", x)
			}
			*v = T(x)
		}
	}
}

// Count codes a length n; decoded, one the bytes left hold at minBytes
// an item, or 0 and a failure.
func (c *Coder) Count(n, minBytes int) int {
	x := c.uvarint(uint64(n))
	if c.Dec && x > uint64(len(c.Buf)/minBytes) {
		c.Fail("length or count %d exceeds the %d bytes that remain", x, len(c.Buf))
		return 0
	}
	return int(x)
}

// Slice codes the length of *s, then each element with code. Decoding
// sizes *s by the length first: nil for none.
func Slice[E any](c *Coder, s *[]E, minBytes int, code func(*E)) {
	if n := c.Count(len(*s), minBytes); c.Dec {
		*s = nil
		if n > 0 {
			*s = make([]E, n)
		}
	}
	for i := range *s {
		code(&(*s)[i])
	}
}

// span codes a length n. Decoding, it returns a view of the n bytes
// after it; encoding, the caller appends them.
func (c *Coder) span(n int) []byte {
	if n = c.Count(n, 1); !c.Dec {
		return nil
	}
	s := c.Buf[:n]
	c.Buf = c.Buf[n:]
	return s
}

// Str codes *v as a length and its bytes.
func (c *Coder) Str(v *string) {
	if s := c.span(len(*v)); c.Dec {
		*v = string(s)
	} else {
		c.Buf = append(c.Buf, *v...)
	}
}

// Bytes codes *v as a length and its bytes; empty decodes as nil.
func (c *Coder) Bytes(v *[]byte) {
	if s := c.span(len(*v)); c.Dec {
		*v = append([]byte(nil), s...)
	} else {
		c.Buf = append(c.Buf, *v...)
	}
}

// Flags codes booleans as the bits of one byte, the first in bit 0;
// decoding refuses a byte with any other bit set.
func (c *Coder) Flags(bs ...*bool) {
	var f byte
	for i, b := range bs {
		if *b {
			f |= 1 << i
		}
	}
	if !c.Dec {
		c.Buf = append(c.Buf, f)
	} else if len(c.Buf) == 0 || c.Buf[0]>>len(bs) != 0 {
		c.Fail("flags %x", c.Buf[:min(len(c.Buf), 1)])
	} else {
		for i, b := range bs {
			*b = c.Buf[0]&(1<<i) != 0
		}
		c.Buf = c.Buf[1:]
	}
}

// Float codes each *v as the uvarint of its byte-reversed bits: a byte
// or two for a round number.
func (c *Coder) Float(vs ...*float64) {
	for _, v := range vs {
		if x := c.uvarint(bits.ReverseBytes64(math.Float64bits(*v))); c.Dec {
			*v = math.Float64frombits(bits.ReverseBytes64(x))
		}
	}
}

// CodeExported codes e's tracks but not its BLOB ID, which the record
// around it names. Decoding, each run's layers are a window on one slab
// (a window taken before the slab grew keeps its array, never written
// again), so variable-size frames, a run each, cost a few allocations in
// all. Nothing is sized by a run's N: Import checks it against the BLOB.
func CodeExported(c *Coder, e *Exported) {
	var slab []LayerRun
	Slice(c, &e.Tracks, 16, func(et *ExportedTrack) { // sixteen fields of a byte at least
		s, k := &et.Type, &et.Type.Constraint
		c.Str(&et.Name)
		c.Str(&s.Name)
		Int(c, &s.Kind)
		Int(c, &s.TimeNum, &s.TimeDen)
		c.Flags(&k.RequireContinuous, &k.EventBased, &k.Homogeneous)
		Int(c, &k.ConstantDuration)
		Int(c, &k.ConstantElementSize, (*int)(&s.Quality))
		c.Str(&s.Encoding)
		Int(c, &s.Width, &s.Height, &s.Depth, (*int)(&s.Color), &s.Bits, &s.Channels)
		CodeDescriptor(c, &et.Desc)
		Slice(c, &et.Runs, 10, func(r *Run) { // ten fields of a byte at least
			Int(c, &r.N)
			Int(c, &r.Start, &r.Dur, &r.Gap)
			c.Flags(&r.Desc.Key)
			Int(c, &r.Desc.Quantizer, &r.Desc.Width, &r.Desc.Height)
			if n := c.Count(len(r.Layers), 3); c.Dec && n > 0 {
				slab = append(slab, make([]LayerRun, n)...)
				r.Layers = slab[len(slab)-n : len(slab) : len(slab)]
			}
			for l := range r.Layers {
				Int(c, &r.Layers[l].Offset, &r.Layers[l].Len, &r.Layers[l].Gap)
			}
			Int(c, &r.StorageIndex)
		})
	})
}

// AppendExported appends e's layout to b. It fails only on a descriptor
// of a type the layout has no code for.
func AppendExported(b []byte, e *Exported) ([]byte, error) {
	c := Coder{Buf: b}
	CodeExported(&c, e)
	return c.Buf, c.Err
}

// DecodeExported reads an interpretation of BLOB id that AppendExported
// wrote; bytes after the last field are an error.
func DecodeExported(data []byte, id blob.ID) (*Exported, error) {
	c := Coder{Buf: data, Dec: true}
	e := &Exported{BlobID: id}
	CodeExported(&c, e)
	if c.Err == nil && len(c.Buf) != 0 {
		c.Fail("%d bytes after the last field", len(c.Buf))
	}
	if c.Err != nil {
		return nil, fmt.Errorf("interp: record: %w", c.Err)
	}
	return e, nil
}

// CodeDescriptor codes *d: its media kind's code, 0 for none, then its
// fields in declaration order.
func CodeDescriptor(c *Coder, d *media.Descriptor) {
	var code media.Kind
	if !c.Dec && *d != nil {
		code = (*d).Kind()
	}
	if Int(c, &code); c.Err != nil {
		return
	}
	switch code {
	case media.KindUnknown:
		if c.Dec {
			*d = nil
		}
	case media.KindVideo:
		v := pick[media.Video](c, d)
		Int(c, &v.Quality)
		Int(c, &v.FrameRate.Num, &v.FrameRate.Den, &v.DurationTicks)
		Int(c, &v.Width, &v.Height, &v.Depth, (*int)(&v.Color))
		c.Str(&v.Encoding)
		c.Float(&v.AvgDataRate, &v.PeakDataRate)
	case media.KindAudio:
		a := pick[media.Audio](c, d)
		Int(c, &a.Quality)
		Int(c, &a.SampleRate.Num, &a.SampleRate.Den, &a.DurationTicks)
		Int(c, &a.SampleBits, &a.Channels)
		c.Str(&a.Encoding)
		c.Float(&a.AvgDataRate)
	case media.KindImage:
		im := pick[media.Image](c, d)
		Int(c, &im.Quality)
		Int(c, &im.Width, &im.Height, &im.Depth, (*int)(&im.Color))
		c.Str(&im.Encoding)
	case media.KindMusic:
		m := pick[media.Music](c, d)
		Int(c, &m.Division.Num, &m.Division.Den, &m.DurationTicks)
		Int(c, &m.Channels)
		c.Float(&m.TempoBPM)
	case media.KindAnimation:
		an := pick[media.Animation](c, d)
		Int(c, &an.FrameRate.Num, &an.FrameRate.Den, &an.DurationTicks)
		Int(c, &an.Width, &an.Height)
	default:
		c.Fail("descriptor of unknown kind %d", code)
	}
}

// pick returns the descriptor to code: *d when encoding, a new T stored
// in *d when decoding. Encoding a type without a layout fails.
func pick[T any, P interface {
	*T
	media.Descriptor
}](c *Coder, d *media.Descriptor) P {
	p, ok := (*d).(P)
	if c.Dec {
		p = P(new(T))
		*d = p
	} else if !ok {
		c.Fail("no layout for descriptor %T", *d)
		p = new(T)
	}
	return p
}
