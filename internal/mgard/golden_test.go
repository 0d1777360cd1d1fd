package mgard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fraz/internal/dataset"
	"fraz/internal/grid"
)

// The golden pins below fix the exact bytes of mgard streams and of their
// reconstructions under both norms. A changed hash is a format change or a
// kernel bug: the detail sweep may be restructured for speed only if every
// stream and reconstruction stays bit-identical. The hashes assume IEEE-754
// evaluation without fused multiply-add (amd64, the CI target).

type goldenCase struct {
	name          string
	stream, recon string
}

func goldenHash[T grid.Float](vals []T) string {
	h := sha256.New()
	var tmp [8]byte
	for _, v := range vals {
		if grid.ElemSize[T]() == 4 {
			binary.LittleEndian.PutUint32(tmp[:4], math.Float32bits(float32(v)))
			h.Write(tmp[:4])
		} else {
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(float64(v)))
			h.Write(tmp[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenRun[T grid.Float](t *testing.T, data []T, shape grid.Dims, opts Options) (string, string) {
	t.Helper()
	comp, err := Compress(data, shape, opts)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	dec, err := Decompress[T](comp, shape)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	s := sha256.Sum256(comp)
	return hex.EncodeToString(s[:]), goldenHash(dec)
}

// goldenInputs returns float64 inputs: one field of each 2-D and 3-D
// application at small scale, plus odd shapes whose last coarse node falls
// short of the grid edge on every axis.
func goldenInputs(t *testing.T) []struct {
	name  string
	data  []float64
	shape grid.Dims
} {
	t.Helper()
	type input = struct {
		name  string
		data  []float64
		shape grid.Dims
	}
	var out []input
	for _, p := range [][2]string{{"Hurricane", "QVAPORf"}, {"CESM", "CLDHGH"}, {"NYX", "temperature"}} {
		ds, err := dataset.New(p[0], dataset.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		d, shape, err := ds.Generate64(p[1], 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, input{p[0] + "/" + p[1], d, shape})
	}
	rng := rand.New(rand.NewSource(21))
	for _, shape := range []grid.Dims{grid.MustDims(13, 17, 9), grid.MustDims(33, 47), grid.MustDims(2, 3)} {
		d := make([]float64, shape.Len())
		for i := range d {
			d[i] = 40*math.Sin(float64(i)/13) + math.Cos(float64(i)/3) + 0.1*rng.NormFloat64()
		}
		out = append(out, input{fmt.Sprintf("odd%v", shape), d, shape})
	}
	return out
}

func goldenResults(t *testing.T) []goldenCase {
	t.Helper()
	var out []goldenCase
	for _, in := range goldenInputs(t) {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range in.data {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		d32 := make([]float32, len(in.data))
		for i, v := range in.data {
			d32[i] = float32(v)
		}
		// The 1e-9 bound overflows the quantizer for the coarsest
		// coefficients, so the literal path is pinned too.
		for _, rel := range []float64{1e-2, 1e-4, 1e-9} {
			for _, norm := range []Norm{NormInfinity, NormL2} {
				bound := rel * (hi - lo)
				if norm == NormL2 {
					bound *= bound
				}
				opts := Options{Norm: norm, Bound: bound}
				tag := fmt.Sprintf("%s/rel=%g/%v", in.name, rel, norm)
				s, r := goldenRun(t, d32, in.shape, opts)
				out = append(out, goldenCase{tag + "/f32", s, r})
				s, r = goldenRun(t, in.data, in.shape, opts)
				out = append(out, goldenCase{tag + "/f64", s, r})
			}
		}
	}
	return out
}

// TestGoldenStreams pins the SHA-256 of every stream and reconstruction in
// goldenResults. On a mismatch it prints the whole table as computed.
func TestGoldenStreams(t *testing.T) {
	got := goldenResults(t)
	want := make(map[string]goldenCase, len(goldenPins))
	for _, p := range goldenPins {
		want[p.name] = p
	}
	bad := 0
	for _, g := range got {
		w, ok := want[g.name]
		switch {
		case !ok:
			t.Errorf("%s: no pin", g.name)
			bad++
		case w.stream != g.stream:
			t.Errorf("%s: stream sha256 %s, pinned %s", g.name, g.stream, w.stream)
			bad++
		case w.recon != g.recon:
			t.Errorf("%s: reconstruction sha256 %s, pinned %s", g.name, g.recon, w.recon)
			bad++
		}
	}
	if len(got) != len(goldenPins) {
		t.Errorf("%d cases computed, %d pinned", len(got), len(goldenPins))
		bad++
	}
	if bad > 0 {
		for _, g := range got {
			t.Logf("{%q, %q, %q},", g.name, g.stream, g.recon)
		}
	}
}

var goldenPins = []goldenCase{
	{"Hurricane/QVAPORf/rel=0.01/infinity/f32", "6df85f6507c72d8cb4752be137d00e37914b66ba621f7ef98b63cdc94a59b693", "53ef915a784c2a7c10a4339ef71cbddef9e9af43b7ed8077e5ffa98fbb9abcd1"},
	{"Hurricane/QVAPORf/rel=0.01/infinity/f64", "25590d543d97d058bf0319bfd67a72a987a3c88e4a28ca4421eef12057e772a5", "e8f4314ceb17b6cc4242a28c8ba110a2a1e0329fd79a4cbc3cff628bba0ca017"},
	{"Hurricane/QVAPORf/rel=0.01/l2/f32", "5cba67daf82d0e16e39ce75456fa3c670155b68a36659945aab3f0016020d1e0", "fddb3c37b79279e4d8478a4f19b7e39889d30f1cd719eb979fef8c5c81f4a682"},
	{"Hurricane/QVAPORf/rel=0.01/l2/f64", "51b823a47b389c21bc7d323c266c372e6752acca95571c63b3be2a6ab6ed5a8c", "969c68b22973f40972daf544eb2d87a2fe1d38d4e838d5aec468fa083810e59e"},
	{"Hurricane/QVAPORf/rel=0.0001/infinity/f32", "b58b66eda83eb16df574bdc778a1afe7760bc27be78ce4b153f893914f17f482", "08caa2e6f63f2f8bda44c33484ca401bd7ae94f4f8d88918b698f89681d4cfac"},
	{"Hurricane/QVAPORf/rel=0.0001/infinity/f64", "a575e070b360edfc7834676bca964c608a18e1774b71968f051e6697a4a8abaf", "9a0efe88ea6a3422935db73c4832f27316bdc6e3416d52a303deaf833f66bb50"},
	{"Hurricane/QVAPORf/rel=0.0001/l2/f32", "18caa2ebc51f39275fad001b067bbc3f58f34c5763fcecb6afe51f2019092e65", "15e3e3d0c8ef92e48de1b7f4738bb925109f8e9dd619c0a95bb16ad6c28449ae"},
	{"Hurricane/QVAPORf/rel=0.0001/l2/f64", "a2ab493e1c06d7c78e1100da57e3d77429b5b0c115457a8a223169546850b93d", "e474703f23f7bd003f7926eda56acd024290dcdd2247f8273ac208d8b4a2e051"},
	{"Hurricane/QVAPORf/rel=1e-09/infinity/f32", "829469e80e4cdbb36d009975a807176110ef8cfc42393fecb232681c61b49482", "c30d1f769076ec34be2f8fcbaa01ff43d5acd03b58197bec7861bba85739c05f"},
	{"Hurricane/QVAPORf/rel=1e-09/infinity/f64", "57ae252c8c7a90f8bcd2c835e5092746c03c7fc7b18bacfb7b62b7e9ca7cef6e", "1469c01edb083758d37c3cdd8f548cb730533db6f3b4bc71c159aae1a441d44a"},
	{"Hurricane/QVAPORf/rel=1e-09/l2/f32", "8c60fd588f4a42f410d3dd300db9f4f9affa7844b27ddcc4a1c5d66afaac2178", "841265fc3da10ee54b6fb7b7e8b470d3874dd277c680380026024a435ef2bb87"},
	{"Hurricane/QVAPORf/rel=1e-09/l2/f64", "be7be6e36bf2efc0fefb483f8093efa3adc36bacb200637d6947d47ab9975834", "d2d0c932de4e360f2194d9ed02abdd219df5bbca0c32d8d83dfd2626f6793ba1"},
	{"CESM/CLDHGH/rel=0.01/infinity/f32", "a95d0d1e2da964022f703e8e0deab2dcec50aa1f9b4494b60a3f9a5d90bbb8dc", "c27d20bb7b27b54a488a4b2147e2b8b3643fd613b738bf6b39b3d52ead743359"},
	{"CESM/CLDHGH/rel=0.01/infinity/f64", "23b7617725fed07c701eb30f35eb0c7e5c548ee2027734e39a258522f20ba841", "4c44acac2fe595aea535b0ccf8eb4fb4e00ec7fc4a45823e417c00628ab6e7c7"},
	{"CESM/CLDHGH/rel=0.01/l2/f32", "32b499cfd34249d163e2eea17bc924d93221b9eb8286e974eecc76dda7320d21", "ff2886d2dbc7432b25ae0994cfb0453c89b5b8afabc560311e3a617c8e3e724b"},
	{"CESM/CLDHGH/rel=0.01/l2/f64", "9592e5ab7c5c89c0dde134a2d2c26254b8cadbf5db50c2aa7754df58c08e9e8f", "f91cdd1377c47d119a6e8b151578881f49b14a3af0b1fcf38362eac5d1e72ea5"},
	{"CESM/CLDHGH/rel=0.0001/infinity/f32", "743ee5b06b24cc6b581a11573ad51933a5a89521a5f8600e4f68be3673c6d036", "87e3533052828f4d0944bf517830486a2bed183c4e0423117013c05e4df7386e"},
	{"CESM/CLDHGH/rel=0.0001/infinity/f64", "6fc591aad3bce9414308dc53c5e6fc28f96aa27de23be6b50ecccc3e934d0e68", "44225b5d1c42a7be7cdfe65c345ed0e1b72b33b11b7655073ded82165073b38e"},
	{"CESM/CLDHGH/rel=0.0001/l2/f32", "43d418fcf2de68e8a3f931d2dbf80a9f9e4d4ec7b1ecf182208a00a81a3ba85b", "6cd4e1b5af047c6d27b586d9ef8589d3b898c8116ef5dfcfeb96c3577ab37f6c"},
	{"CESM/CLDHGH/rel=0.0001/l2/f64", "94caebbb6fcfe225e0b9b74916c000470dac86f4138da00e27cfde8b1e3a1d59", "ee7cbd072cfb07a87817fdf0d9cf18bee8fb2dab397ae7f5fbe317fccbd41d46"},
	{"CESM/CLDHGH/rel=1e-09/infinity/f32", "364272f5549e819d9b438fa70603d4e71cd3e9b89706a2a11ee3a54ef03468b3", "0eb04825c92179fbf7530eaad74187f8520f30690853ff3983d7552cbebd544b"},
	{"CESM/CLDHGH/rel=1e-09/infinity/f64", "09a8d15edac3913023364211015156f97f8933bce97f0cea11bae9e4d8b10504", "6941634aae62caf32602d57b6ec68ed9955002c15937db875b56ccab63a93ad3"},
	{"CESM/CLDHGH/rel=1e-09/l2/f32", "1b3acf288d657427262c74e2d07ed524a30659b18fb7d918b0f98ec9ce61b25e", "0eb04825c92179fbf7530eaad74187f8520f30690853ff3983d7552cbebd544b"},
	{"CESM/CLDHGH/rel=1e-09/l2/f64", "adf90528eba7e087c15a1ce605ef98413080b77bc4edbe160bb8b682ea76b9c0", "dcb2cd4c27f6f91939271ea820572b3ecd4e626f28db2af28ca2bf98e2959cd0"},
	{"NYX/temperature/rel=0.01/infinity/f32", "f9cf15671579c41094da19ded4fc7be7c61d3b5577c589be0da45071e1e91f1d", "9516c989a076605ded7764b41b20294151cee5ef449cb39bf7ffe61db983be6f"},
	{"NYX/temperature/rel=0.01/infinity/f64", "158bd314ecebe7f79db5be45aa235bea03794ce5963a4abc7f375610f2d74a0e", "23f07d266a4ea3580470fd4801a536783a206e8eaf6f26279c76773ca9985c66"},
	{"NYX/temperature/rel=0.01/l2/f32", "8f0dd1d215475678d5ee5a51324805dea5d5e49ec9cdd023bfc94062276d5b45", "5c2e01de6ab66959898af883e899ad5ab80df2e2e21deb61cc69ed03c9664873"},
	{"NYX/temperature/rel=0.01/l2/f64", "9980cb6b6d490fbe6386adffb7edc3e59cdf7bb57da56a5aeddd94be9b08a5bc", "02e7a31f17d4e99214c2764294dd6fb3977b7cb37974694679b28912fd9b352a"},
	{"NYX/temperature/rel=0.0001/infinity/f32", "38df6d96c6c7421742f130f079a3c583eb312108db31a887b19fd3f9d0acc53b", "ae8655912bd6ceee064096ddf67cf2638740232830b589fd8696038d0ed1eea6"},
	{"NYX/temperature/rel=0.0001/infinity/f64", "bafeed4720ffc3963b778be5749f0b23c6405b0bd9d2d0ec9973b2fc3db0d207", "40ee62e6fae3f1fc3bb6936358c048d2069f53d4d4171261226d6cb2c07ffe4c"},
	{"NYX/temperature/rel=0.0001/l2/f32", "3a0179a64bbaef02163deb5e13995d36ba2fc0773de930d80ee4c1eff20109b0", "6ec391d2928d031c8c3cd066831c804824188cb686488d91308efbe77837cac7"},
	{"NYX/temperature/rel=0.0001/l2/f64", "b77b7c545b9843f0d89381b19a17d9edf22ddbbbf4388a8b1b71f911907740b9", "5b2df4219c91a6eb2300c20cf356a9e52a379d0449a505cca1bdb82ce04cf7c8"},
	{"NYX/temperature/rel=1e-09/infinity/f32", "2d642cb41293afb47db803522f54d4d555a133d97cabc92bfcf1ad55c055f55f", "c08170c81140213eff6cb93dd2ac879bec8e74838c5c674ee5356f96b699d281"},
	{"NYX/temperature/rel=1e-09/infinity/f64", "44165f37ed52d66dc01840cde79e532c04445814eadd98645473afbede598f8a", "3979ae67d5998d5870ae84c7a09be6f4090c173a770f4f9bd86696d47832bb46"},
	{"NYX/temperature/rel=1e-09/l2/f32", "829daa3089d7d824583e42588d8b96a2a8db327325b2a52bb3a8e1785d70536f", "c08170c81140213eff6cb93dd2ac879bec8e74838c5c674ee5356f96b699d281"},
	{"NYX/temperature/rel=1e-09/l2/f64", "d0bd2979ceabb8bfafaae2624df5970369b00720751d21c96ff58acfc0d88d34", "ee3c7d403d337ecb58891badf35d706de6f632bc78ef9310705e58d7af0b27cb"},
	{"odd13x17x9/rel=0.01/infinity/f32", "78fa54f021556e5199f474c30d90aa8d34ec2e6125551e0b6f1ab50c36e5a6bf", "6e6515c80577ef2e817e91e689bfca77d77d74a841fdf11417b17fbcde46003f"},
	{"odd13x17x9/rel=0.01/infinity/f64", "3b0c544790e7925cb4f3bc5bf5870443bba19b6dd304c5d3ee2989962d714d66", "85586596df1824935b430ddb5176c4d1bd39d700be69ed3a0320658c4ce804ed"},
	{"odd13x17x9/rel=0.01/l2/f32", "5640fe454cf8a074907748780afaef71aa25be22d7714691a70055c675a8765b", "24c3f9786aa0d3189e830bc914471c77cc488fcd303b0f47bcf736ebd3e3e7db"},
	{"odd13x17x9/rel=0.01/l2/f64", "a3d4ca1e8e602d629335c0d9a9cc17a3ed0e48f3754f2031a5acc4dda5d7b0b8", "f04131ebb6d087f5a676b9d9f3f6c685c8c5378a4fba8a43283819a896bb6f1f"},
	{"odd13x17x9/rel=0.0001/infinity/f32", "adbec3fd61e5874315433baba615aed14c8ead9266bf01870f9ab955000c2efb", "2ce7e0d17fb60dec32a4e9c828c4447c198aabfd6822a4b362d85be5bb01aa1c"},
	{"odd13x17x9/rel=0.0001/infinity/f64", "98d2e0ad321a51384668caef251c562221286379b2e3f7cf11ed5fca54ceec70", "52608b37afd6014d30d965feff03dde7c6e6b3b64f878b5ab5d7e80bd8466847"},
	{"odd13x17x9/rel=0.0001/l2/f32", "54dd66d0c6aa94c5a5205eaa38c215f838858de3ae22f37e906210b2b9454051", "2a250465bc2b686a6d368d77566d46446de7232d3075da10590e234b22d6726a"},
	{"odd13x17x9/rel=0.0001/l2/f64", "0487eb88340032f1017f939f60b38e24f795d0924ef2a3ed62acb424ac04d412", "5db6f42cb9e27b892b305ceb743232394456a0472be1d47a214f4939636d244e"},
	{"odd13x17x9/rel=1e-09/infinity/f32", "fdc978875527fbc2f6d10f7f381fcd580827cb958aa5c5b8d1ac5304eacb3c7f", "9868b4cba6b6f84974b7005d95ab062299dd07b0093823f1fd88a5674bdc4a1e"},
	{"odd13x17x9/rel=1e-09/infinity/f64", "b576f57c7ee4497f6d95f20527543908925be6c500de81ccf4159f7a2876121d", "da6b1398364d1d614e4945c1fd061626f3c8ecf59669d1f356b18aa872ab39c6"},
	{"odd13x17x9/rel=1e-09/l2/f32", "3bebfa3a00b8358b8d628d0daf9de868ec5bc3496831ea057355e02249319490", "9868b4cba6b6f84974b7005d95ab062299dd07b0093823f1fd88a5674bdc4a1e"},
	{"odd13x17x9/rel=1e-09/l2/f64", "fa8b9f0681c16f03b3cdef265c29ae2496b1e0a03a0c81143287839a3481299a", "da6b1398364d1d614e4945c1fd061626f3c8ecf59669d1f356b18aa872ab39c6"},
	{"odd33x47/rel=0.01/infinity/f32", "7a87e87236259da5d9a4bea5a1c6b5f2cb544ebc7bdb18aecfd9766333bdfb14", "a3b15953c0164e8d495c688a426c6ad427dae34fe0a17487504a2478491b39b5"},
	{"odd33x47/rel=0.01/infinity/f64", "d9dd865c85cc619e83c8f01ff7e1236a7a0440c9644bb4212ea5d5f71049e5e1", "63516df0143525b1c7b783b16559cfec5931b100dba7c8cd7fb0e2d82e78f18e"},
	{"odd33x47/rel=0.01/l2/f32", "aa666b714dd31f67461c52a330c1bfb111d5e3ff1fd6b7263405f1424370904c", "92c632c87bca8513ad45b5dfd5e6fde1554ab002ba6b6929349bd72de4caca48"},
	{"odd33x47/rel=0.01/l2/f64", "3c3973905297cfba6e5db370d6f8769581c719abe628ecd04eec5031eda7031b", "a3ef6d638f23fed4fa255de43a21d449e23684ae74883bb578f550600f670032"},
	{"odd33x47/rel=0.0001/infinity/f32", "3bbfc8fe5a72879ee08ff5baed50a471634ea148989c31d4ff0dcaf77eb28425", "4fcfadd0b2e8e3c0ed9ef073de9bb4134bdbd2dbd43ade33fdd07a1bd423e2cb"},
	{"odd33x47/rel=0.0001/infinity/f64", "64ef7b8f24d7e4c05f554c9ebf78f6503372ca40208b6f5a444c83007fcb5170", "ac6285928223168437487347dbcbbba5772d4ad0554d48a8b79e8e9814c8a8a6"},
	{"odd33x47/rel=0.0001/l2/f32", "2b9103aaa742c75f9fdd1b1428a33c4d85b83b4436c99af8a921f6a4da72d109", "486509922d0ceccb6a3bac1d0561123be22cb605c61187e6d2ff584dc0c73ccd"},
	{"odd33x47/rel=0.0001/l2/f64", "566ac87f08d72619dc2b432ad165e24fb173b77153192d0aa2bf242f1ea70166", "f23b8cca59a5af0b23027406c5ca60ee7b6ebda6c20bae6b16f79ec01070a50e"},
	{"odd33x47/rel=1e-09/infinity/f32", "902b1813c2bfbd9c214d8981047cd6267151547a29071f7071ad1ed64811c0f8", "e838b48d03b209f286e063e73d2a88c818c19371514815d0fcd3404062a2258d"},
	{"odd33x47/rel=1e-09/infinity/f64", "e404cdd19c7e9a70f23342b83b53b823cec91e72f6a250bde9c04e70501f8a55", "c671a73d75acba4f488b1785aee94f4ea32cdce11a8ae199cabecd5500a0141a"},
	{"odd33x47/rel=1e-09/l2/f32", "c6a7d3a052227d7982bd553f99e36bb66d1e3f5de0da2b9347623e350f993b78", "e838b48d03b209f286e063e73d2a88c818c19371514815d0fcd3404062a2258d"},
	{"odd33x47/rel=1e-09/l2/f64", "d3cd5868bf68e21f844432773e963ed4d1d8d12ed9e2da6f53c9bbbb6ee11338", "149b769c3f3cb0e01a79685401776e94585c14536477951f7895d393ce3e229f"},
	{"odd2x3/rel=0.01/infinity/f32", "ef15cfb6a11b720f8383ae4d5b67c21cccbadb696e578a9865271a3b8b3d5e92", "071f9393858bc57b646222ad84722d6f76f51579aa0d82bae5b1514ff93d0f30"},
	{"odd2x3/rel=0.01/infinity/f64", "53fdc6fe51cecddfb9f6ee34dbb27e4afe5cddbb72d1b10e2a1d75dc5761e515", "4ce1015b20517bb4ef4862e0cac152b11bc362ce5875e8f26d8144cff068b189"},
	{"odd2x3/rel=0.01/l2/f32", "84f775479efb5a01dbac6fd4b097fc551a3ce1fcb85374ee2edcc6ef2f8d0d29", "049523d87b325733f2ab96f33417e1b917338e3528c2c6adcef8d1e991752f07"},
	{"odd2x3/rel=0.01/l2/f64", "d92a49b1b5823da4725af15b682390357c8b58b341a3c4ad38b4fdef9e08dcd0", "231dcdbc1c852835c4497e3b35d7ea01d8787ae526bf97d10c905bee668faa9f"},
	{"odd2x3/rel=0.0001/infinity/f32", "ddb5b2889710a4524127c3dfe8853ac6ed7eca03864468f99cde9ab166546bc6", "128c8a822722e3ddf0ef124cb7ecae971fe5a7017063c2002bf2aded794e6ec8"},
	{"odd2x3/rel=0.0001/infinity/f64", "0be7be51dbed3ce0cc8c13b48b2b13dabcacf4910c8ef812b0f431a856a11b9e", "cf29f41d1d3fa04c14063640b9cab1b2c058599fccafc034148baca95d732154"},
	{"odd2x3/rel=0.0001/l2/f32", "fad75efdb75a0966d95df82d8e8603fec7e434988a91f9f74066c8baf33cff32", "cfc35cc00a412b97f435ed59166db70799573e1dca21d8e015364cf407c15834"},
	{"odd2x3/rel=0.0001/l2/f64", "988bf4b5d0694d101239df2fac88e21456970a0503ab0b3d4d699b0ccbfb57e8", "88a85f5a524021031c173336c540286245ec9f44343c63f9b72a639974e71b2d"},
	{"odd2x3/rel=1e-09/infinity/f32", "01f7e90a753be0c6e723dffe915b3e384912c085fd0a6bc0124a4f6cc01516b3", "23d59f35924836f12ad65a352924aa7e4b142266959702515bf126855c0e8e13"},
	{"odd2x3/rel=1e-09/infinity/f64", "1ce78f8f52a8fdee7e17d3ebe7759fa6d431dfedb8b8b44f53d61a000740a615", "b92193784c11010fe3a7d3da3c50a600873973cfa5a8053cd800addf818b0618"},
	{"odd2x3/rel=1e-09/l2/f32", "a37e24e27ec5a863ce6667c8456aa6f461f9f8d2c8f759144036dfcf5d5610e3", "23d59f35924836f12ad65a352924aa7e4b142266959702515bf126855c0e8e13"},
	{"odd2x3/rel=1e-09/l2/f64", "d05133c6a403a73414d4386feebbd044c85d4016d6920b62a1752e8194123e7f", "b92193784c11010fe3a7d3da3c50a600873973cfa5a8053cd800addf818b0618"},
}
