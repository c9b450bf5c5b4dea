package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"timedmedia/internal/frame"
)

// The golden tables pin the vjpg/vmpg bitstream and its decoded pixels
// byte for byte: a change to the encoder or decoder kernels must leave
// every digest below where it is.

// goldenQuantizers spans the whole quantizer range, from near-lossless
// to the coarsest step.
var goldenQuantizers = []int{1, 4, 12, 20, 128}

// goldenSizes covers the benchmark's clip size, odd widths and heights
// (a chroma plane wider than half the luma), a 3-row strip and a single
// pixel.
var goldenSizes = []frame.Generator{
	{W: 160, H: 120, Seed: 1},
	{W: 33, H: 17, Seed: 2},
	{W: 7, H: 3, Seed: 3},
	{W: 1, H: 1, Seed: 4},
}

type goldenCase struct {
	name string
	f    *frame.Frame
	q    int
}

func goldenCases() []goldenCase {
	var out []goldenCase
	for i, g := range goldenSizes {
		f := g.Frame(i + 1)
		for _, q := range goldenQuantizers {
			out = append(out, goldenCase{fmt.Sprintf("q%d/%dx%d", q, g.W, g.H), f, q})
		}
	}
	return out
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// layeredGolden and vmpgGolden are the two multi-frame fixtures: one
// odd-sized layered frame, and one vmpg GOP with keys every fourth
// frame.
func layeredGolden(t *testing.T) (base, enh []byte) {
	t.Helper()
	base, enh, err := VJPGEncodeLayered(frame.Generator{W: 33, H: 17, Seed: 12}.Frame(3), 8)
	if err != nil {
		t.Fatal(err)
	}
	return base, enh
}

func vmpgGolden(t *testing.T) []VMPGPacket {
	t.Helper()
	packets, err := VMPGEncode(genFrames(9, 48, 32, 4), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	return packets
}

func checkGolden(t *testing.T, name, got string, want map[string]string) {
	t.Helper()
	if got != want[name] {
		t.Errorf("%s: sha256 %s, want %s", name, got, want[name])
	}
}

// TestVJPGEncodeGolden pins what the encoders write: vjpg frames at every
// golden quantizer and size, one layered frame and one vmpg GOP.
func TestVJPGEncodeGolden(t *testing.T) {
	for _, c := range goldenCases() {
		data, err := VJPGEncode(c.f, c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkGolden(t, c.name, digest(data), encodeGolden)
	}
	base, enh := layeredGolden(t)
	checkGolden(t, "layered", digest(base, enh), encodeGolden)
	var parts [][]byte
	for _, p := range vmpgGolden(t) {
		parts = append(parts, binary.BigEndian.AppendUint32(nil, uint32(p.Index)), p.Data)
	}
	checkGolden(t, "vmpg", digest(parts...), encodeGolden)
}

// TestVJPGDecodeGolden pins what the decoders return for the same
// fixtures: the RGB and the YUV reconstruction of every vjpg frame, the
// base and full reconstruction of the layered frame, and every frame of
// the vmpg GOP.
func TestVJPGDecodeGolden(t *testing.T) {
	for _, c := range goldenCases() {
		data, err := VJPGEncode(c.f, c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rgb, err := VJPGDecode(data)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		yuv, err := VJPGDecodeYUV(data)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkGolden(t, c.name, digest(rgb.Pix, yuv.Pix), decodeGolden)
	}
	base, enh := layeredGolden(t)
	low, err := VJPGDecodeBase(base)
	if err != nil {
		t.Fatal(err)
	}
	full, err := VJPGDecodeLayered(base, enh)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "layered", digest(low.Pix, full.Pix), decodeGolden)
	frames, err := VMPGDecode(vmpgGolden(t))
	if err != nil {
		t.Fatal(err)
	}
	var parts [][]byte
	for _, f := range frames {
		parts = append(parts, f.Pix)
	}
	checkGolden(t, "vmpg", digest(parts...), decodeGolden)
}

var encodeGolden = map[string]string{
	"q1/160x120":   "96463ca314b1b960ad02bc98451edcfd8abd88f0e5873b0261b11f1125be97ce",
	"q4/160x120":   "e1ca454598b129681f8aaca098871b877f9d3702cd7ed2c7df0b259b1dcd33b0",
	"q12/160x120":  "767043a676f9c35386cc998382a25d1c926fbe4300ee385039f79e690b9a1249",
	"q20/160x120":  "e3a7701984384aa6ef625ec2e90af5bc56c022beb73aa490026c2544f004b816",
	"q128/160x120": "f24e48da7aa5f72168227995ea7ab421829c73c2c05abd1bf3cb2ae84fa5b777",
	"q1/33x17":     "721501b3047b1e327e3700db8696d2ac4b3f872eab396e8f474c042853dfe2e0",
	"q4/33x17":     "74eca314dfa1f9569107c97aaa99b4fa5f006cb2a973c30dabd0f6dda8c3a199",
	"q12/33x17":    "75361bcc87b00e067d7593c1d9817fbbd1ba9267156610713820c8878ff4692a",
	"q20/33x17":    "bb4975943c5c456b627ec0fb1e7415ce047fdd124c88c61e06da627343b10653",
	"q128/33x17":   "550b5981d011640da46458f8f02f07b54370a5822f3bc6cc7acc9602a39fbeeb",
	"q1/7x3":       "82eb790a188073f1fc567c475589adca1c8ef8a9b540905861e51a546f816e16",
	"q4/7x3":       "3551e9f5e94b577b94c8ae99a374e5ef8889dc04c476abc85217316d068ac6c5",
	"q12/7x3":      "8b161ad0b1c0dbfff1a5f0f5a144f7ff745c4d3d237785074dc92469549b5a58",
	"q20/7x3":      "2dc42659592cfa8adaf134843445d1b2b27d8e57ba91e896db042b9d9ab82415",
	"q128/7x3":     "e90c632d759ca7fc38904dbe44bf9b6b4a3d29f33762455e6524f2d1da5b5da2",
	"q1/1x1":       "f8cf37a72a82333b44db2b5a7fa032b9092d14a997e8d732185e5f9dd1a0844c",
	"q4/1x1":       "e1dc1c5326e39f9ad96d0c0bae64ca87944a5087a44697fc8cf29c92cd7a04b4",
	"q12/1x1":      "cab236779d0c5b238ae4bf0c287cb671e557ecd0fb6b295234fb222f28eca6a6",
	"q20/1x1":      "56e914e6eb608562e3099c45c4c4ceb2aab255f5877ecbf56fe7c34b5704a29d",
	"q128/1x1":     "a8454290516d5dd8c285fe20244c09070c775ea8533d05caadde8a9baf33624a",
	"layered":      "c8b872afc0071046f9c77787ba78e502b716583beab38b3bbf655db74325245e",
	"vmpg":         "8c22db053fc63df3dbdba0c52382f3a818e2ccffa46765eeaf2bd96a15e7301b",
}

var decodeGolden = map[string]string{
	"q1/160x120":   "10a476145f0a91fb2e1056a8f51c0d860c10a5f524538913504fd519a630d039",
	"q4/160x120":   "10c844ca9ec6d50c10b4c0a4a0b177352b1455c109c95af2ab5f6a6177cfc791",
	"q12/160x120":  "d42c93a73390f0da86d67f1178d644af1d0a46cb6bac9cafc910b4a17681e735",
	"q20/160x120":  "b733ed51ce1f37e50a94a29eb06a59bac6b329a937315cb844911b87998873f2",
	"q128/160x120": "d5fc521064d7821ef06e295726522697aaa681454a695943e2033479af64b3be",
	"q1/33x17":     "7e67ac0ba4239198384f077cd92419526a8b114fe0d7c5a6e44c3a68196134c9",
	"q4/33x17":     "7ecb4af61e886dd4bad1d7bc5278f5cef4a9b01b45db677285f52614f3736a3d",
	"q12/33x17":    "bba16e9af7235be3e315c82aa069c66788b0124392c22561c438313775849752",
	"q20/33x17":    "976a5410fbc894933962656ab868636bcee83b06b92590cc5995ae5265f18654",
	"q128/33x17":   "ffc15020739fef92c5f04ceb990686e016326d9fbeca58deafa3ee6b99dfef5d",
	"q1/7x3":       "e5a1ac643b349394a12190099c010f81c2b739f0dda45bd04bf4b096a0c590f6",
	"q4/7x3":       "ada609a3077484d34038efc3b7eb3575e08c524a4c0790fb4007e78a0bbe28ca",
	"q12/7x3":      "dff1ba358d87232c741412248901145b9cedf9faa72743a2bca33ab4f9bfb8f6",
	"q20/7x3":      "f99bcaaed65c1bc030a123aae20b8377402f84d52826d746fb89076b66581a28",
	"q128/7x3":     "da07db2af38f3baea4e2cfc404c18ccfc8ae0c9975c9d138c3350ec3a2bccc96",
	"q1/1x1":       "c58996f44fa1323b0d904fc60daa9f5cb604d01afc3d1f79da00437eb1645a36",
	"q4/1x1":       "b1998635b8e771d8b1e7c3470cdc844d0b0e418558bf39b0a645ef4b3d08ab80",
	"q12/1x1":      "bc74fa9a93f284448333e385ce88093b53628894b2b6255fa530870fd4b75eaf",
	"q20/1x1":      "da623daf1ee2da4fb235aea84f63f8974752e217be754ed677eeff97132dc5b5",
	"q128/1x1":     "2e40717c82acfe750dfd6d241d780a8ff0573275c64fefc4610eb5426ed976b1",
	"layered":      "42a7643df451aafeacc10cff8a1f5330ae0eaccf12ff74a3bab332fa2350d344",
	"vmpg":         "6df02e2ae3368ffd22a6091128d1a1e23691b4e2a25c88eb89cf198c2d43c13c",
}
