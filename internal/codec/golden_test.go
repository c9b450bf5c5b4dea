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
// odd-sized layered frame, its base in vjpg layer l, and one vmpg GOP
// with keys every fourth frame.
func layeredGolden(t *testing.T, l layer) (base, enh []byte) {
	t.Helper()
	el := l
	if l == layerVert {
		el = layerLuma // the same residuals, the same pixels, so the same enhancement layer
	}
	base, enh, err := encodeLayered(frame.Generator{W: 33, H: 17, Seed: 12}.Frame(3), 8, el)
	if err != nil {
		t.Fatal(err)
	}
	if l == layerVert {
		base = recode(t, base, layerVert)
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

// goldenSet is the golden fixtures' bitstreams in one layer.
type goldenSet struct {
	frames    map[string][]byte // the vjpg frames, by goldenCases name
	base, enh []byte            // the layered frame
	vmpg      []VMPGPacket      // the vmpg GOP; none in the MED-predicted layers
}

// goldenStreams encodes the golden fixtures in layer l. In layerArith
// they are what VJPGEncode writes now, in layerVert what it wrote
// before range coding, in layerLuma what it wrote
// before vertical runs, in layerBias what it wrote before luma bias
// correction, and in layerMED what it wrote before chroma bias
// correction; vmpg keys are never MED-predicted, so none of the five
// has a GOP. In the other layers
// the vjpg frames and the layered base are mean-predicted, as earlier
// builds wrote them and as vmpg keys are written now, and each
// bitstream is recoded to l (recode).
func goldenStreams(t *testing.T, l layer) goldenSet {
	t.Helper()
	vl, in := l, func(data []byte) []byte { return data }
	if l < layerMED {
		vl = layerRice
		if l != layerRice {
			in = func(data []byte) []byte { return recode(t, data, l) }
		}
	}
	set := goldenSet{frames: map[string][]byte{}}
	for _, c := range goldenCases() {
		set.frames[c.name] = in(encodeLayer(t, c.f, c.q, vl))
	}
	base, enh := layeredGolden(t, vl)
	set.base, set.enh = in(base), in(enh)
	if vl == layerRice {
		set.vmpg = vmpgGolden(t)
		for i := range set.vmpg {
			set.vmpg[i].Data = in(set.vmpg[i].Data)
		}
	}
	return set
}

// goldenLayers are the tables TestVJPGEncodeGolden holds each layer's
// bitstreams to: what the encoders write now — arithEncodeGolden, and
// encodeGolden for the vmpg GOP — and what earlier builds wrote for the
// same frames.
var goldenLayers = map[layer]map[string]string{
	layerArith:  arithEncodeGolden,
	layerVert:   vertEncodeGolden,
	layerLuma:   lumaEncodeGolden,
	layerBias:   biasEncodeGolden,
	layerMED:    medEncodeGolden,
	layerRice:   encodeGolden,
	layerRice1:  rice1EncodeGolden,
	layerVarint: varintEncodeGolden,
}

// TestVJPGEncodeGolden pins what the encoders write: vjpg frames at
// every golden quantizer and size, one layered frame and one vmpg GOP.
// The mean-predicted bitstreams recoded to an earlier layer (recode)
// must be, byte for byte, what earlier builds wrote for the same
// frames: the three mean-predicted layers code the same tokens.
func TestVJPGEncodeGolden(t *testing.T) {
	for l, want := range goldenLayers {
		set := goldenStreams(t, l)
		for name, data := range set.frames {
			checkGolden(t, name, digest(data), want)
		}
		checkGolden(t, "layered", digest(set.base, set.enh), want)
		if l == layerMED {
			base, enh, err := VJPGEncodeLayered(frame.Generator{W: 33, H: 17, Seed: 12}.Frame(3), 8)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "layered", digest(base, enh), want)
		}
		n := len(set.frames) + 1
		if set.vmpg != nil {
			var parts [][]byte
			for _, p := range set.vmpg {
				parts = append(parts, binary.BigEndian.AppendUint32(nil, uint32(p.Index)), p.Data)
			}
			checkGolden(t, "vmpg", digest(parts...), want)
			n++
		}
		if n != len(want) {
			t.Errorf("layer %d: %d bitstreams checked against a table of %d", l, n, len(want))
		}
	}
}

// TestVJPGDecodeGolden pins what the decoders return for the same
// fixtures: the RGB and the YUV reconstruction of every vjpg frame, the
// base and full reconstruction of the layered frame, and every frame of
// the vmpg GOP — lumaDecodeGolden for the bitstreams with every plane
// corrected, range coded, with vertical runs or without (the same
// residuals, so the same pixels), biasDecodeGolden for those with corrected chroma,
// medDecodeGolden for the MED-predicted ones without, and
// decodeGolden for the mean-predicted ones in each of the three layers
// they were ever written in.
func TestVJPGDecodeGolden(t *testing.T) {
	for l := range goldenLayers {
		want := decodeGolden
		switch l {
		case layerArith, layerVert, layerLuma:
			want = lumaDecodeGolden
		case layerBias:
			want = biasDecodeGolden
		case layerMED:
			want = medDecodeGolden
		}
		set := goldenStreams(t, l)
		for name, data := range set.frames {
			rgb, err := VJPGDecode(data)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			yuv, err := VJPGDecodeYUV(data)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkGolden(t, name, digest(rgb.Pix, yuv.Pix), want)
		}
		low, err := VJPGDecodeBase(set.base)
		if err != nil {
			t.Fatal(err)
		}
		full, err := VJPGDecodeLayered(set.base, set.enh)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "layered", digest(low.Pix, full.Pix), want)
		if set.vmpg == nil {
			continue
		}
		frames, err := VMPGDecode(set.vmpg)
		if err != nil {
			t.Fatal(err)
		}
		var parts [][]byte
		for _, f := range frames {
			parts = append(parts, f.Pix)
		}
		checkGolden(t, "vmpg", digest(parts...), want)
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

// encodeGolden is what the encoders wrote before MED prediction, and
// what vmpg keys are written as now: layerRice's "VL", "VG" and "VM"
// bitstreams.
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

// medEncodeGolden is what the encoders wrote before chroma bias
// correction: layerMED's "VN" frames, and the layered frame's "VN" base
// and "VG" enhancement, which VJPGEncodeLayered writes now.
var medEncodeGolden = map[string]string{
	"q1/160x120":   "84f82e9b4ab801cc183fed1158d9415187c04d0e9ff386ddd5a919e3ec58386c",
	"q4/160x120":   "f906f1f16413067938b505a546aeefb24860b07640e859b88b142253ba02fe3d",
	"q12/160x120":  "13719b7226129539444b9c11220396dfeeaf24c5e8330e063e0994c04f8b559a",
	"q20/160x120":  "f5c7234957909739db20720ec27399c258ce3fefa8e2863386458176f0c820d5",
	"q128/160x120": "760cb0afceabf82e277cf13b6e062734c0f75af3248333a840316ab47f6bfaad",
	"q1/33x17":     "1fbb29af825022c312cca8e1f2a4d9209308c0c7470375cb6bbbd074bf51b0fe",
	"q4/33x17":     "5fb7c2943d3edbddbb11d61491a8d609508b34adb5b7e9fc9dda686bafe7b45a",
	"q12/33x17":    "11d0f5e5f6988a3af8060873ab1e90170d487b8e9630da133711bf514af32196",
	"q20/33x17":    "1c05361e8c7fafcd32c2c61cd28aacebe0cb6b930085e6756700588c78277516",
	"q128/33x17":   "85712d56bd70d16e257770f026e1c80e8698a37a04152eaebe68933e023f0998",
	"q1/7x3":       "8e039790f98694742858e59911eab0a7fe3c03a26c47119fdd635a286da608ee",
	"q4/7x3":       "f08dc5acd97769199442f7eab6f8bb69ca6091a8f1dcefaa39802e767dd1b42a",
	"q12/7x3":      "d215482c62ac5f383766245c834c37015645b987a99731700d8b407f19980742",
	"q20/7x3":      "b6546f7efbdf3629e1729be078bc07031f81cb8e4791c13b7c45449423cc2a2a",
	"q128/7x3":     "6eab042920eed8899d2c542542e85e54527e17a642a7b0e5090a4888b9717aa2",
	"q1/1x1":       "fc745649edca842af6b9ab883e3e2c5f2f275d20d9be7630a2721cbf99d80802",
	"q4/1x1":       "e6d2b736d9dedec00ce6979d4e13c14399a6898ccc825c9a8e05c47eeaabc80b",
	"q12/1x1":      "9bfb78511769d12b44cb5b8fd1457acf0b08073cea1e51cdf68379dc62a54f5b",
	"q20/1x1":      "274ec6a9536ff226e678f7b487605d06fa025aa479a80606765c854c73c2712d",
	"q128/1x1":     "377210a54c127349bccd45fa99d52ed54a841318316563d001c65cad275e4e92",
	"layered":      "74b0e70f2ffac061df3fcd9bc22521f2aa28859417239e2b43522aa3db48553e",
}

// medDecodeGolden is what the "VN" bitstreams decode to.
var medDecodeGolden = map[string]string{
	"q1/160x120":   "ddd7e447e5ef53dcd8b1d9185a75e5398a5b52bfc97a2ae818afe20322423994",
	"q4/160x120":   "e3f9c23d21149a7bdb0e515ed2077caba2bf4ea6de6a9abf91cfc0d621e95c47",
	"q12/160x120":  "fbf9e991e324f4f8f0c15581a3fc457c1d317cb6fcb9250e8fbbb3c5103af8fc",
	"q20/160x120":  "adf6bed41bcb0395374c9504017ccea5c3abab53384aef6d6389b4c6003e54f1",
	"q128/160x120": "62943d8aac0cd6e67349e10c5a0cb9758064339d961e8cfa09768bd317e598c8",
	"q1/33x17":     "c2ff88ca7853deba1f1f87ebcfb86698ad20bfdf51253deddc74cca70e38c55e",
	"q4/33x17":     "3a7072425355ac480102c3b83060f6d0ba007065f73dd05ec0307fcf1320d812",
	"q12/33x17":    "206e3375dfd152e62e56016b169f0966d3a2d14592ab4b2b4c47afae43dfb674",
	"q20/33x17":    "d062ff3d8f4e8971b940d99ef81d6db5b93949067f26edb526a16dd3b7e7d01b",
	"q128/33x17":   "a4f7e31845204122c1d7a96c46d75b01117795b241e207f8fe5d9c113c3df9c6",
	"q1/7x3":       "a6c01bbf3c975edb32aa3867ae19b0542d7c2528a525107991f2b9fd7bd388f2",
	"q4/7x3":       "42c5aedb9aa0e2ad2135c3f55ac3846e73d95a5ab67cd4af9fcb13a15edddf1d",
	"q12/7x3":      "c1b8b8e704eb4bc6424210be94a3983f738f6204d7c0317b69b6af1aaa87d270",
	"q20/7x3":      "ad63722ad5367cc10a32fb31b037c228dc3e9ef633fc69c5f4c551b82b3d806e",
	"q128/7x3":     "b78f651ceadc46b7288319df1a4f3ec00799fed237ce6b0ba6b882f234497a6d",
	"q1/1x1":       "c58996f44fa1323b0d904fc60daa9f5cb604d01afc3d1f79da00437eb1645a36",
	"q4/1x1":       "b1998635b8e771d8b1e7c3470cdc844d0b0e418558bf39b0a645ef4b3d08ab80",
	"q12/1x1":      "bc74fa9a93f284448333e385ce88093b53628894b2b6255fa530870fd4b75eaf",
	"q20/1x1":      "da623daf1ee2da4fb235aea84f63f8974752e217be754ed677eeff97132dc5b5",
	"q128/1x1":     "2e40717c82acfe750dfd6d241d780a8ff0573275c64fefc4610eb5426ed976b1",
	"layered":      "1c5831f9005a47350ea6810993c10f186e0a29e75e40bf90277a66b41f599375",
}

// biasEncodeGolden is what the encoders wrote before luma bias
// correction: layerBias's "VB" frames, and the layered frame's "VB"
// base and "VG" enhancement.
var biasEncodeGolden = map[string]string{
	"q1/160x120":   "2d19787acf0809023d9f762a6d75f4073e443bb15ee6a156568528e329275913",
	"q4/160x120":   "45384dea36bc991eaad5c1db949575c7681f0c53465fe8ca2ccddb32ec86c048",
	"q12/160x120":  "560a7d593f5ffcc46894b3f254c1ce0865800d2c28c0138b412ca266794ac581",
	"q20/160x120":  "fc5a52540767540ac2b5e938195bdbafc1d2dab00740d35a89d135f51d94964b",
	"q128/160x120": "49925927f3ac5a2d9ba9f442447745159f0e80166d559c7b30dd5d28e510d8b9",
	"q1/33x17":     "edce3b42ac5203f0506ff4548d1948dd40a0ce92edbfea676f98965739b7d906",
	"q4/33x17":     "3496a06c225f706b743dbb34f6d41bf049b4f2edb81a583029461f358ccd5764",
	"q12/33x17":    "1ad1ba09b00d225ec455887edd97357034221aa62bb5348fd6b1ce8ad682af52",
	"q20/33x17":    "ec35ef801826feade461741e06bb3d064e3947fca6d5c88278de0d36c3fe438c",
	"q128/33x17":   "6a9e17f1bb5e26c79fdb62a882ddd6508c007eb03463a26c11cd693778ed9aa5",
	"q1/7x3":       "ad6c2617c4fe26d5a130474b03668e3364a7b13955a0f4162b2e59b845f608c9",
	"q4/7x3":       "f9f9fc03f97a1e61cfcf512d00605796c4f2e8e66db716280006ffd8238549d7",
	"q12/7x3":      "2fb39d558f3bd5cb3bf6d354c1bcbd72c76a1191b2bdf62ab9b270bc6799db8c",
	"q20/7x3":      "94ce534d3cf088fb129876acae8c3c3aff562945750c7121aa99477ad3d3d463",
	"q128/7x3":     "7e1c91e5b07e8399d52645ef5ef0f29314326975c559c0f03cc9b0a74bc3c4f2",
	"q1/1x1":       "cb765b0f846f1347d872a565cd49af8064f5aa64dd342ffd31ba6ae2f8ca884a",
	"q4/1x1":       "edfb41e2c71f9bd22b458d2988e7dd12852fd34d46077d27056dcf8e0dce7e92",
	"q12/1x1":      "da91b61b7014c9520a5b2dfc61d98e36d08f3f808cf2763adacc09033376bf03",
	"q20/1x1":      "ba430b47c6a667868626b199982d62fc2e82bc525ab27efbd3ace79e09c56d59",
	"q128/1x1":     "4849ef024ffd32c65b5fc24de28b3b80260eec91ea60e40100a2a312b33b056c",
	"layered":      "b819db90e1475570de90ed8aa08590561f070b6fa6eab38575f27371853f78a5",
}

// biasDecodeGolden is what the "VB" bitstreams decode to.
var biasDecodeGolden = map[string]string{
	"q1/160x120":   "18f09b4f1bf9cf198231fc3917f0746f97518a5b6b6326b49340424a5a8401f4",
	"q4/160x120":   "cccc10fc7a11e99094ad2ce6efb7cf191f8f40b0980d461d408d4850078a0b93",
	"q12/160x120":  "f4df82f3aec42cc3fb39f0f1ab09c7b9da6d1a7ad9f4eed9f58ddb26a80c348c",
	"q20/160x120":  "2a8a6521d90b33cad26a260f45f8cd3a64cea2d0e35bd615f0b899b16b4e6b67",
	"q128/160x120": "c9a52919d9bffb307879ed894d03c72461328d00939495008416881840947e0a",
	"q1/33x17":     "08be4657b468a629eb0c92b9354bebbc4ee328c6ab40fadd8652cf78d839ed2b",
	"q4/33x17":     "07f698422bd0241a98d405dab03f98e28718ab6fbdd69f81095b72f206d12466",
	"q12/33x17":    "a453d4722ff203550bc3250c300811b70f45698b024c29f83f8efeff44d4bca1",
	"q20/33x17":    "7b9d85d1d342a8d164bf8c8f3c13bda25d4a8e916f97fb335ed0da88bd7acaff",
	"q128/33x17":   "88670f229367ef3cc6f38c7883fd2d995509f29ba6847d41b6d9e3fa2c9b367e",
	"q1/7x3":       "a6c01bbf3c975edb32aa3867ae19b0542d7c2528a525107991f2b9fd7bd388f2",
	"q4/7x3":       "42c5aedb9aa0e2ad2135c3f55ac3846e73d95a5ab67cd4af9fcb13a15edddf1d",
	"q12/7x3":      "c1b8b8e704eb4bc6424210be94a3983f738f6204d7c0317b69b6af1aaa87d270",
	"q20/7x3":      "ad63722ad5367cc10a32fb31b037c228dc3e9ef633fc69c5f4c551b82b3d806e",
	"q128/7x3":     "b78f651ceadc46b7288319df1a4f3ec00799fed237ce6b0ba6b882f234497a6d",
	"q1/1x1":       "c58996f44fa1323b0d904fc60daa9f5cb604d01afc3d1f79da00437eb1645a36",
	"q4/1x1":       "b1998635b8e771d8b1e7c3470cdc844d0b0e418558bf39b0a645ef4b3d08ab80",
	"q12/1x1":      "bc74fa9a93f284448333e385ce88093b53628894b2b6255fa530870fd4b75eaf",
	"q20/1x1":      "da623daf1ee2da4fb235aea84f63f8974752e217be754ed677eeff97132dc5b5",
	"q128/1x1":     "2e40717c82acfe750dfd6d241d780a8ff0573275c64fefc4610eb5426ed976b1",
	"layered":      "ff3a653afc8fad1ddba3fdfcc09ccb54f12599e1242785645cdfdd4e69b277d0",
}

// lumaEncodeGolden is what VJPGEncode wrote before vertical runs:
// layerLuma's "VY" frames; and the layered frame over a "VY" base, which
// decodes but is not written (VJPGEncodeLayered's base is "VN",
// medEncodeGolden's).
var lumaEncodeGolden = map[string]string{
	"q1/160x120":   "22737626acdf456ee6de847aa6215347a7ea127d4d5e459879f1305ad28ba05f",
	"q4/160x120":   "10f553127d46788dc3bb1128a031e7b8af270fd143278cc3b091919c1a152672",
	"q12/160x120":  "9afe429738a00939e22b31ae186ffab68ee70080c44d7be566dd9a1978c3b64d",
	"q20/160x120":  "588dcf5b32747d61164d5e4ffe63ba99c9983035595962bbff63ca337cb0846f",
	"q128/160x120": "98291f95959496c261ad485ae61fe4b780cc0752a53f50fcae3113bf9da4a7de",
	"q1/33x17":     "55d5c38cc8de19550b78d662be6c131462a6efad0b1ac66c0d0fe9652509031a",
	"q4/33x17":     "c931272fb8fe8ac9cd4e804e0a7ee279736cded6997d8e3383d533a2409087b4",
	"q12/33x17":    "60a82019246918e2ff930635f41fba81508fb3462e6d265172214b4e6cf6d73e",
	"q20/33x17":    "0ff8c5af17c74b20d83278e81c03be27dbc7a3f1939d2db048b50154028db113",
	"q128/33x17":   "090163e662e86f02ffad3085f52800bf02cfd8b1070f36bced31b7f253a0d0cf",
	"q1/7x3":       "59a2251e25240bc8db30439cb84011ccac7d6d196f53cf0e6577ecb754a68f99",
	"q4/7x3":       "f208ec11193094a30e505b96629911a63a37faccd9a0ebd9a9be16ab5719b138",
	"q12/7x3":      "b10a755f139e78d92df903f5b3dc991f9273ed0422128f5857e3d0fa153da7fa",
	"q20/7x3":      "1f078109efccc65caa0bbc93fe2dd0be842c128f34c2cbe3691a8857beb9f13e",
	"q128/7x3":     "4a36169f06d8ed0eb3ae42c3d371e3d7c61e42326a6ae729323a9c534832da38",
	"q1/1x1":       "e2b52cb6b5d7bca2484246fd2dda47878cb427662a3b9d0593b7539cabf5d82c",
	"q4/1x1":       "5c085a0b122f0361c9f7c7620dd602fe4f0f9637acbfb3b43804014b5b28387f",
	"q12/1x1":      "26bf1f0b9cae87c7f5b35bf587db80fe0dbd0277c7c208c83a20490861ebf04f",
	"q20/1x1":      "5162b5b402360a7dccd978a7c1256e1d52618c5e7f0b9f28b140291c83e67170",
	"q128/1x1":     "da706e253012e9b07a247fe058f6703942b1c785e7c87e515a0055d4b78576de",
	"layered":      "fe795c23a117c1f6af111b5ec9c732b196dc8715c94462aa26bbab3cf760b465",
}

// lumaDecodeGolden is what the "VY" bitstreams decode to, and the "VV"
// and "VA" ones.
var lumaDecodeGolden = map[string]string{
	"q1/160x120":   "18f09b4f1bf9cf198231fc3917f0746f97518a5b6b6326b49340424a5a8401f4",
	"q4/160x120":   "60dd7863288ee99873109ac3530c7f673d9288d3d8dd4e815d119ead980d8579",
	"q12/160x120":  "0fba0ce424fc6179851b6b7fb60e2b941638d60cf53c0ceeb2e80e8ecd345fa7",
	"q20/160x120":  "fb946dab2df69c0dfe1285131932ce6f2ec491835684de8f780da4ee74c9d008",
	"q128/160x120": "c9a52919d9bffb307879ed894d03c72461328d00939495008416881840947e0a",
	"q1/33x17":     "08be4657b468a629eb0c92b9354bebbc4ee328c6ab40fadd8652cf78d839ed2b",
	"q4/33x17":     "1e803f0de4311cf505181df5b40c92a3d9ba0d5dfcd0f682d22c2743581b725a",
	"q12/33x17":    "b684468cdc4709856ef14d25cf4a17ac788bac1da627b211ebcc70f319e9b174",
	"q20/33x17":    "7b9d85d1d342a8d164bf8c8f3c13bda25d4a8e916f97fb335ed0da88bd7acaff",
	"q128/33x17":   "88670f229367ef3cc6f38c7883fd2d995509f29ba6847d41b6d9e3fa2c9b367e",
	"q1/7x3":       "a6c01bbf3c975edb32aa3867ae19b0542d7c2528a525107991f2b9fd7bd388f2",
	"q4/7x3":       "0bc8efa3f37712b64f0c63b45a6f63f04008a86593b7b2463566385811ce2abc",
	"q12/7x3":      "c1b8b8e704eb4bc6424210be94a3983f738f6204d7c0317b69b6af1aaa87d270",
	"q20/7x3":      "ad63722ad5367cc10a32fb31b037c228dc3e9ef633fc69c5f4c551b82b3d806e",
	"q128/7x3":     "b78f651ceadc46b7288319df1a4f3ec00799fed237ce6b0ba6b882f234497a6d",
	"q1/1x1":       "c58996f44fa1323b0d904fc60daa9f5cb604d01afc3d1f79da00437eb1645a36",
	"q4/1x1":       "b1998635b8e771d8b1e7c3470cdc844d0b0e418558bf39b0a645ef4b3d08ab80",
	"q12/1x1":      "bc74fa9a93f284448333e385ce88093b53628894b2b6255fa530870fd4b75eaf",
	"q20/1x1":      "da623daf1ee2da4fb235aea84f63f8974752e217be754ed677eeff97132dc5b5",
	"q128/1x1":     "2e40717c82acfe750dfd6d241d780a8ff0573275c64fefc4610eb5426ed976b1",
	"layered":      "7e5037be3306ceac9a0d571b5a0e1d2b1828a4b5d3990501b40635224f28a23d",
}

// vertEncodeGolden is what VJPGEncode wrote before range coding:
// layerVert's "VV" frames; and the layered frame over a "VV" base,
// which decodes but is not written.
var vertEncodeGolden = map[string]string{
	"q1/160x120":   "6e9d3fd8c56072def75348ef9e0c460a30eb1b41ba75daa3ed3be42daedf386d",
	"q4/160x120":   "d432f57592dce0055af3b4ac1a511b1417108e60d802f166e84cbf8a47c10131",
	"q12/160x120":  "fded5c9009205fafe512581c29917cea7b49a4c847a0ae52b4d70215a4b147a1",
	"q20/160x120":  "1b45138d9266fbcf21097291298d1883413f47eabaa237afc7e5a3f4e4037d71",
	"q128/160x120": "a4cbc801af5fb9c1b1b800f9bc1695f6f00ab571067316c3efcfbefd3c2e1ea8",
	"q1/33x17":     "9d2012e61eb1ecff443488f9337ec738d43385397837624b53086ac973076f20",
	"q4/33x17":     "ede66ed603a8a0af058a7c751b46c13cfb289b3c8dcc1dc0c31c5a813cae42ca",
	"q12/33x17":    "8c3f5a871c65f7134ae961693d14b1a1221c62d9861a16ef27edfb9789082401",
	"q20/33x17":    "834c6763e8a6e9c076057d2e426947d74ee110ed37f88a78960dbdce4f68c889",
	"q128/33x17":   "37ddf0fdd144bcd8b64258623c7447794a86e4d22e61b4a749b41d90c932966d",
	"q1/7x3":       "49b551820ba133a350b6bdf6c385d2a96e82d1ada1de74e8bb1bb71e7fe34c39",
	"q4/7x3":       "5c429c49c08332807d715942d120709ef4dedeb0f222822a5ff3afc4cfdbea1c",
	"q12/7x3":      "8289f114ef562f2940e424729006ee3f0a45c1dc96896b8a95e246e8cfb3e220",
	"q20/7x3":      "9b6f10d04567d07bc847efb5e2bfa408101ea69c2bce4b3abd6978036f9d6e75",
	"q128/7x3":     "1588c042853e0b49d994fb137f49e659738fdd1d8fc726022934ac2107d1525c",
	"q1/1x1":       "0c274251530869c1ed1fc612dc69e666490fc059d2ab7b2de8b636e05da74618",
	"q4/1x1":       "8a2a2edba2bd91010f9ae404bdeaa8f73950bad2ce5c273cd2317c75269ad5e5",
	"q12/1x1":      "aa96b791aebd9ca7cc5fc4c062b6434dc8918ec6c822e2d3e540dbeee3c58734",
	"q20/1x1":      "1252992ccfc3e23592270e542baf12ed01c9fc19f665c36531a9813bc7b8f005",
	"q128/1x1":     "239e7ad68b04d7baa3f059a14bc5d5b4836b9ec8ba468c4d45ae4db8585dc7ca",
	"layered":      "b50456980d1dd02e9c6244e620acd33cf8914a1c970699f1c8658fc59e83febc",
}

// arithEncodeGolden is what VJPGEncode writes now: layerArith's "VA"
// frames; and the layered frame over a "VA" base, which decodes but is
// not written.
var arithEncodeGolden = map[string]string{
	"layered":      "be655b58b71adb99a99a071d66338cc7ae75d728a2a0169c98468dcd4522569d",
	"q1/160x120":   "09b1d9ccd51cd0ae8812068b2e8d9816c4a7ee702a6fcadcb322d43ce10a7524",
	"q1/1x1":       "1ec435b3392d4d88bf304174f8f618a18f48c08026ecd578bd48258ece444651",
	"q1/33x17":     "4fe0bdb31dcad856ba988d847a611fe7757772791656a371bd33964cf234e8ef",
	"q1/7x3":       "9688d9cf4dc40774ffe11b45310b1af7ff7b695dad041ba0db17f662158623aa",
	"q12/160x120":  "ce56743eab8f426f333033564aadb5eb3c7b119c3170b23dd7166ddae4465d5f",
	"q12/1x1":      "45ca38dedd361c77c73980557ba3b7f8676ae62c5c7ca23dfb826003e0ea6b25",
	"q12/33x17":    "909d48d87e12a4637a078ea221ae9051a0ec5224f0bbb9a56d1fdfd7b9792b95",
	"q12/7x3":      "024b91487fafacf4735ad10729499538d7ace11f8191bec6787336435c6bf705",
	"q128/160x120": "e08223e840439dcf03e1b2f0621872cf84781516cea19ceec9c9459f0a4ccecb",
	"q128/1x1":     "b9adfd944a2a91b90109138f5d055cef1cca323e8e7fa8763b2eb7ad9f31b408",
	"q128/33x17":   "1a10caa5dacbf53ce1116864cf57fe88e237b400c259a8b1ab1514db3ff03565",
	"q128/7x3":     "d83f3cbe417d2c7cb3e764ea42d8247bc87c06894ed5be7fbe9f790ffd0427f6",
	"q20/160x120":  "bae68a7adc309c966b5f2f84a923b2915c4ce7649ea383d60267b17e8dad4ea2",
	"q20/1x1":      "6c6533dcd4d54d9e2cff4fd710edad011696266011e23344152e82734d0eb5ae",
	"q20/33x17":    "c39ba5fdf5314e79d2ffbe95b582e2acce4b3e87391d1d2761d6f62f00448659",
	"q20/7x3":      "fb70c5e02a916cf28154c9c50aac81871bfd0ffa428ef406e84733c14cdfd908",
	"q4/160x120":   "c2b6e9aa3df42c203ab73b0d6780b610d8de8b95357ce44b88c643b35eed8395",
	"q4/1x1":       "6778f373013d3d1ef094f3db23dd241b969d399d2e66fd77004449ae129966bc",
	"q4/33x17":     "a6fc072c1c9aad48d2748c2ccdd903fea2de75c5afe85c3a1f20fe023ab92778",
	"q4/7x3":       "ef7c39a3c1a4fdc280f553d8e2eec32abd7784f8c122aa789f23cfb47b3dfd32",
}
