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

// goldenLayers are the tables TestVJPGEncodeGolden holds each entropy
// layer's bitstreams to: what the encoders write now, and what earlier
// builds wrote for the same frames.
var goldenLayers = map[layer]map[string]string{
	layerRice:   encodeGolden,
	layerRice1:  rice1EncodeGolden,
	layerVarint: varintEncodeGolden,
}

// TestVJPGEncodeGolden pins what the encoders write: vjpg frames at every
// golden quantizer and size, one layered frame and one vmpg GOP. Each
// bitstream recoded to an earlier layer (recode) must be, byte for
// byte, what earlier builds wrote for the same frames: the three layers
// code the same tokens.
func TestVJPGEncodeGolden(t *testing.T) {
	for l, want := range goldenLayers {
		in := func(data []byte) []byte {
			if l == layerRice {
				return data
			}
			return recode(t, data, l)
		}
		for _, c := range goldenCases() {
			data, err := VJPGEncode(c.f, c.q)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			checkGolden(t, c.name, digest(in(data)), want)
		}
		base, enh := layeredGolden(t)
		checkGolden(t, "layered", digest(in(base), in(enh)), want)
		var parts [][]byte
		for _, p := range vmpgGolden(t) {
			parts = append(parts, binary.BigEndian.AppendUint32(nil, uint32(p.Index)), in(p.Data))
		}
		checkGolden(t, "vmpg", digest(parts...), want)
	}
}

// TestVJPGDecodeGolden pins what the decoders return for the same
// fixtures: the RGB and the YUV reconstruction of every vjpg frame, the
// base and full reconstruction of the layered frame, and every frame of
// the vmpg GOP — from the bitstreams the encoders write and from the
// same bitstreams in the two layers earlier builds wrote.
func TestVJPGDecodeGolden(t *testing.T) {
	for l := range goldenLayers {
		in := func(data []byte) []byte {
			if l == layerRice {
				return data
			}
			return recode(t, data, l)
		}
		for _, c := range goldenCases() {
			data, err := VJPGEncode(c.f, c.q)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			data = in(data)
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
		base, enh = in(base), in(enh)
		low, err := VJPGDecodeBase(base)
		if err != nil {
			t.Fatal(err)
		}
		full, err := VJPGDecodeLayered(base, enh)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "layered", digest(low.Pix, full.Pix), decodeGolden)
		packets := vmpgGolden(t)
		for i := range packets {
			packets[i].Data = in(packets[i].Data)
		}
		frames, err := VMPGDecode(packets)
		if err != nil {
			t.Fatal(err)
		}
		var parts [][]byte
		for _, f := range frames {
			parts = append(parts, f.Pix)
		}
		checkGolden(t, "vmpg", digest(parts...), decodeGolden)
	}
}

// varintEncodeGolden is what the encoders wrote before the Rice layer:
// the varint layer's "VJ", "VE" and "VC" bitstreams.
var varintEncodeGolden = map[string]string{
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

var encodeGolden = map[string]string{
	"q1/160x120":   "7f26acaa0104be1c4a2e1325229b43459a9155197dd3ebc5b2a6927dc3a77947",
	"q4/160x120":   "61937914c68873024cde9d8ebff3acd30b464078201af20b24e2e474d1f04085",
	"q12/160x120":  "091b32f5e7a5f9e31ad4f05b5f2ec292294d5b33ec0aee1da7571a96565a8c1a",
	"q20/160x120":  "be7fb6419b4a2ce2f6ce1052478ff4e2301cbc515c982c832b71355a322edda7",
	"q128/160x120": "0ee36de19550e48abb28f47f982a034098f5a15d7e6b7c18fcbc737bfe10bc53",
	"q1/33x17":     "a19c3148194507d298f561da44fd5a8118f13aaecd9884f5214cf80e1e2d1a6e",
	"q4/33x17":     "f47f5b4bfd276e89ba9f179a0b0d997b20f0ca91aa617679996bcd7323abe405",
	"q12/33x17":    "2243d9430a421bda2e5e37b25f491cc28a1f278679b214bbbc5167abca430d99",
	"q20/33x17":    "4212c8067f97d5646b5fcaa77f141e7a82ce4b211c1be66948e5bf5826b2e6a9",
	"q128/33x17":   "9bd83456f2032c3cc29b5f6c082accfbb32081920a6137f7b099d2f80b68063f",
	"q1/7x3":       "b39de22aee2d88c21eeb69f38e3bf4f74eed7c9cd7704131afca2860be11b158",
	"q4/7x3":       "f45a160c2e696b95c1ce592f29a12b2dd7dd0bdfefa70100be9f28c54e706597",
	"q12/7x3":      "8d176a447f27197a1e346869efb214ac141dfdf5dc549bf6d5f5c4d9f50f5161",
	"q20/7x3":      "3ca861d3eac8064f7f5780e1503ccbde8de58cd7131321ecc1662758a44d928f",
	"q128/7x3":     "5546d4780513053844425a1229291874021b1c665b8115d60412636896907ee4",
	"q1/1x1":       "64bb14a41cc4c8f880fb1f72006dfb2b30fa525d6b7b553b64f65003e8e0e5d6",
	"q4/1x1":       "cd79e98efb12f1e4820818d6254c4fdd5232f5cec8bb612f2d3fe5d30b791ec6",
	"q12/1x1":      "f147985d992301893d2f6c3f1865e081105fc464b2c33a820054d0e81b18aeed",
	"q20/1x1":      "c50b0e916496c9a39f283124c36dc3a3455bb77d2af34110b0792fff5f272658",
	"q128/1x1":     "42133bf1768fe71253812a0616fcceae38396252afc03c12157118efcbb9fb19",
	"layered":      "736bb2dfda2340bc31da6a898c73d7f123d55b3c410daabb36edf1cd5087b4ec",
	"vmpg":         "c636d9cfb90285cd2e197b1d8b7a7d0f6092c2a29b8736d3568446896991ece7",
}

// rice1EncodeGolden is what the encoders wrote before run interruption:
// layerRice1's "VK", "VF" and "VD" bitstreams.
var rice1EncodeGolden = map[string]string{
	"q1/160x120":   "6b152a243a067cab7ce51fa32298e632779e14d441e77503a1135d4cf75bf998",
	"q4/160x120":   "1a3f2c2da1dc22a443599ebf516523cf43e05de9b125d6429cb85d8c70648048",
	"q12/160x120":  "35d606e67dfd6ad285ee5878f5f5f41fc63ef896ace81b40ff58f1eb5ecd73b1",
	"q20/160x120":  "2ce76cb6cacce81e29c0c8b9ba5eea46d264130db76519ab08940c8646a52284",
	"q128/160x120": "db7d151d4339a6c655b947e6d4aa067a5e1780c3f7c3dafdc53b38485926a9d0",
	"q1/33x17":     "77bf2f1ef9ea7cd98e30f38d3b091bf3b3da5cf849317ef8e1544fc4af76a508",
	"q4/33x17":     "2cbbc565b4fabeda9f7183d1be2c74a54b3e02bd30a056cb3070273bd15b2456",
	"q12/33x17":    "0e401c9021af8b8b6f944daef856a22433404cea271e40a20d6964ba7f56e7a8",
	"q20/33x17":    "87d6a6d08d06f53ed6d6eb47e123c7f7b7d9dd1b24198c1949e6cd9cad301ccd",
	"q128/33x17":   "6c77aa6d6cf86538d4bcd3fc6f77fc788857fe2a649395db1c453c8b0b298b73",
	"q1/7x3":       "9b2b396b0b78f249f0019b2d260cfc800e27d478deb7075be288041b6844c39a",
	"q4/7x3":       "dfcac7d68193410aaf10f98116501ebcf221c4f5c4ccb3e663f5b535544a98ff",
	"q12/7x3":      "7f02139672a6e33a73fc67803e07e83e878cb100c05da39c0574016c67b28bbe",
	"q20/7x3":      "0f7882253f2a5eca2112824822e1b6f88c04047b3cd3c6f2f68ef07cb1c00f08",
	"q128/7x3":     "593a128fbcd721cd56764bd064135ed4f2e0b8286a22e700afeb343675eedcbe",
	"q1/1x1":       "1672b34aae2e4db188d528de6e58cb3e30430cf024769a11b12d6389bf29a638",
	"q4/1x1":       "227df390ba7d8e1c095bd1fba234fcc1f4aebce46ca02d76e1885c05b691858b",
	"q12/1x1":      "9a8dea37e85387cc93cdc52264326d47235c587592d7d92b871c3bc8d2999e79",
	"q20/1x1":      "5878d0ddd341e6b574bd3f3f068ac161d99b166fa1910fc0efeb09215d93dd99",
	"q128/1x1":     "55032f088c773965dba82ee461f6f456dbab2010347f6f4191c0f4abdbd617b0",
	"layered":      "566a97701cf9b997753d33506a528284a1067ca1d1ca0eaa26a0e878e7eb9323",
	"vmpg":         "5ced64a07788658c32c1d33a616eaf76b88732d8ef17b6466628c1f3a3a2c26c",
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
