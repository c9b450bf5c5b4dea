package catalog

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"timedmedia/internal/codec"
	"timedmedia/internal/frame"
	"timedmedia/internal/interp"
	"timedmedia/internal/media"
)

// hugeVJPG is a 22-byte vjpg frame that validly encodes a w×h frame of
// flat grey: its header claims the size and each of its three planes is
// one zero run.
func hugeVJPG(w, h int) []byte {
	out := append([]byte("VJ"), 12)
	out = binary.BigEndian.AppendUint16(out, uint16(w))
	out = binary.BigEndian.AppendUint16(out, uint16(h))
	cw := (w + 1) / 2
	for _, n := range []int{w * h, cw * h, cw * h} {
		out = binary.AppendUvarint(append(out, 0), uint64(n))
	}
	return out
}

// expandAllocBytes reports the bytes a cold db.Expand of the named
// object allocates and its error: the least of up to three runs,
// retried while over bound, so that a background goroutine's allocation
// in one of them does not count.
func expandAllocBytes(db *DB, name string, bound uint64) (uint64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	obj, err := db.Lookup(name)
	if err != nil {
		return 0, err
	}
	least := uint64(math.MaxUint64)
	for try := 0; try < 3 && least > bound; try++ {
		db.InvalidateCache()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = db.Expand(obj.ID)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least, err
}

// TestExpandRefusesOversizedFrame: a video element whose header claims
// 4096×4096 in a 160×120 track is refused as corrupt, naming the track,
// the element and both sizes, before anything of the claimed size is
// allocated — in a vjpg track, in either layer of a layered one, and in
// a vmpg key frame.
func TestExpandRefusesOversizedFrame(t *testing.T) {
	const w, h = 160, 120
	good, err := codec.VJPGEncode(frame.Generator{W: w, H: h, Seed: 1}.Frame(0), 12)
	if err != nil {
		t.Fatal(err)
	}
	base, enh, err := codec.VJPGEncodeLayered(frame.Generator{W: w, H: h, Seed: 1}.Frame(0), 12)
	if err != nil {
		t.Fatal(err)
	}
	hugeEnh := append([]byte("VE"), enh[2])
	hugeEnh = binary.BigEndian.AppendUint16(hugeEnh, 4096)
	hugeEnh = binary.BigEndian.AppendUint16(hugeEnh, 4096)
	hugeEnh = binary.AppendUvarint(append(hugeEnh, 0), 4096*4096*3)

	vjpg := media.PALVideoType(w, h, media.QualityVHS, media.EncodingVJPG)
	vmpg := media.PALVideoType(w, h, media.QualityVHS, media.EncodingVMPG)
	for _, c := range []struct {
		name, want string
		typ        *media.Type
		layers     [][]byte
		desc       media.ElementDescriptor
	}{
		{"vjpg", "frame is 4096x4096, track is 160x120", vjpg, [][]byte{hugeVJPG(4096, 4096)}, media.ElementDescriptor{}},
		{"base", "frame is 4096x4096, track is 80x60", vjpg, [][]byte{hugeVJPG(4096, 4096), enh}, media.ElementDescriptor{}},
		{"enhancement", "4096x4096 enhancement layer over a 80x60 base", vjpg, [][]byte{base, hugeEnh}, media.ElementDescriptor{}},
		{"vmpg", "frame is 4096x4096, track is 160x120", vmpg, [][]byte{hugeVJPG(4096, 4096)}, media.ElementDescriptor{Key: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := memDB()
			id, b, err := db.Store().Create()
			if err != nil {
				t.Fatal(err)
			}
			bu := interp.NewBuilder(id, b).AddTrack("v", c.typ, c.typ.NewDescriptor(2))
			bu.Append("v", good, 0, 1, c.desc)
			bu.AppendLayered("v", c.layers, 1, 1, c.desc)
			it, err := bu.Seal()
			if err != nil {
				t.Fatal(err)
			}
			if err := db.RegisterInterpretation(it); err != nil {
				t.Fatal(err)
			}
			if _, err := db.AddNonDerived("clip", id, "v", nil); err != nil {
				t.Fatal(err)
			}
			const budget = 1 << 20
			n, err := expandAllocBytes(db, "clip", budget)
			if !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), "v[1]") || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Expand = %v, want ErrCorrupt naming v[1] and %q", err, c.want)
			}
			if n > budget {
				t.Errorf("Expand allocated %d bytes, budget %d", n, budget)
			}
		})
	}
}
