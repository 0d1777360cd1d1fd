package sz

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

// The golden pins below fix the exact bytes of sz streams and of their
// reconstructions. The kernels are rewritten for speed from time to time;
// every rewrite must keep the streams and reconstructions bit-identical, so
// a changed hash here is a format change or a kernel bug, never noise. The
// hashes assume IEEE-754 evaluation without fused multiply-add (amd64, the
// CI target); architectures on which the compiler fuses x*y+z may differ.

// goldenCase is one pinned compression: its stream and reconstruction
// SHA-256 digests, hex encoded.
type goldenCase struct {
	name          string
	stream, recon string
}

// goldenHash hashes a reconstruction as little-endian IEEE-754 bits at the
// element width.
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

func streamHash(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// goldenRun compresses and decompresses one input and returns its digests.
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
	return streamHash(comp), goldenHash(dec)
}

func valueRange[T grid.Float](data []T) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range data {
		lo = math.Min(lo, float64(v))
		hi = math.Max(hi, float64(v))
	}
	return hi - lo
}

// goldenFields names the field pinned for each dataset: one per application,
// covering ranks 1, 2 and 3.
var goldenFields = map[string]string{
	"Hurricane": "QVAPORf",
	"HACC":      "x",
	"CESM":      "CLDHGH",
	"EXAALT":    "x",
	"NYX":       "temperature",
}

// goldenSynthetic returns float64 inputs that reach the kernels' edge
// cases: partial blocks at every rank (4-D included), blocks too small to
// fit, non-finite values, and a narrow quantizer that floods the literal
// path.
func goldenSynthetic() []struct {
	name  string
	data  []float64
	shape grid.Dims
	opts  Options
} {
	rng := rand.New(rand.NewSource(20))
	smooth := func(shape grid.Dims) []float64 {
		out := make([]float64, shape.Len())
		for i := range out {
			out[i] = math.Sin(float64(i)/17)*3 + math.Cos(float64(i)/5) + 0.01*rng.NormFloat64()
		}
		return out
	}
	nonFinite := smooth(grid.MustDims(9, 10, 11))
	nonFinite[5] = math.NaN()
	nonFinite[301] = math.Inf(1)
	nonFinite[302] = math.Inf(-1)
	nonFinite[777] = math.Copysign(0, -1)
	return []struct {
		name  string
		data  []float64
		shape grid.Dims
		opts  Options
	}{
		{"odd1d", smooth(grid.MustDims(1000)), grid.MustDims(1000), Options{ErrorBound: 1e-3}},
		{"odd2d", smooth(grid.MustDims(37, 53)), grid.MustDims(37, 53), Options{ErrorBound: 1e-3}},
		{"odd3d", smooth(grid.MustDims(7, 11, 13)), grid.MustDims(7, 11, 13), Options{ErrorBound: 1e-3}},
		{"thin3d", smooth(grid.MustDims(5, 1, 13)), grid.MustDims(5, 1, 13), Options{ErrorBound: 1e-3}},
		{"odd4d", smooth(grid.MustDims(5, 6, 7, 9)), grid.MustDims(5, 6, 7, 9), Options{ErrorBound: 1e-3, BlockSize: 4}},
		{"nonfinite3d", nonFinite, grid.MustDims(9, 10, 11), Options{ErrorBound: 1e-2}},
		{"narrow3d", smooth(grid.MustDims(12, 12, 12)), grid.MustDims(12, 12, 12), Options{ErrorBound: 1e-4, Intervals: 64}},
	}
}

// goldenResults runs every pinned case on the current code.
func goldenResults(t *testing.T) []goldenCase {
	t.Helper()
	var out []goldenCase
	add := func(name, s, r string) { out = append(out, goldenCase{name, s, r}) }
	for _, ds := range dataset.All(dataset.ScaleSmall) {
		field := goldenFields[ds.Name]
		d32, shape, err := ds.Generate(field, 0)
		if err != nil {
			t.Fatal(err)
		}
		d64, _, err := ds.Generate64(field, 0)
		if err != nil {
			t.Fatal(err)
		}
		vr := valueRange(d64)
		for _, rel := range []float64{1e-2, 1e-3, 1e-4} {
			for _, noReg := range []bool{false, true} {
				opts := Options{ErrorBound: rel * vr, DisableRegression: noReg}
				tag := fmt.Sprintf("%s/%s/rel=%g/noreg=%v", ds.Name, field, rel, noReg)
				s, r := goldenRun(t, d32, shape, opts)
				add(tag+"/f32", s, r)
				s, r = goldenRun(t, d64, shape, opts)
				add(tag+"/f64", s, r)
			}
		}
	}
	for _, c := range goldenSynthetic() {
		d32 := make([]float32, len(c.data))
		for i, v := range c.data {
			d32[i] = float32(v)
		}
		s, r := goldenRun(t, d32, c.shape, c.opts)
		add(c.name+"/f32", s, r)
		s, r = goldenRun(t, c.data, c.shape, c.opts)
		add(c.name+"/f64", s, r)
	}
	return out
}

// TestGoldenStreams pins the SHA-256 of every stream and reconstruction in
// goldenResults. On a mismatch it prints the whole table as computed, so an
// intended format change can be re-pinned by pasting it into goldenPins.
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
	{"Hurricane/QVAPORf/rel=0.01/noreg=false/f32", "80c13a0e1bf6ccf43c064e0d17f483e9e5a2a2d17fcccb19d6f5a03a0ff03560", "e3316e5e64abe97ba6fe4292e81f5d2998242fbbb2224bf8d2615d735999a9a6"},
	{"Hurricane/QVAPORf/rel=0.01/noreg=false/f64", "2550fd1540dfeec43355ea29b906153332ba8dec6054a3804bf2727092d65838", "d916beea8db2f7f416a64cc5ac6e9f577ee4dcb116e32653901cd06818b70313"},
	{"Hurricane/QVAPORf/rel=0.01/noreg=true/f32", "23953af649451e01c7994965e699d4d9eab84bffd1823b0e296663da6aa5b2ab", "1d00b4035184a4a04e7ed0866f073b73d17b7e405f38790fda94b85ebdd10fb3"},
	{"Hurricane/QVAPORf/rel=0.01/noreg=true/f64", "b09563de57f102769bbb5585bb6f9c2c20831d80c84739a5105ab5ac02b88bf8", "1c7e4b27e28ddc53c2df7726b4bd8a3765b9c437bb2cabf2d6619fe1234b89d6"},
	{"Hurricane/QVAPORf/rel=0.001/noreg=false/f32", "81180daa4bb83fbfb4d3a23e60481b09cd119b1b5235475c6ed4d4beaf59ce8a", "405381e4c732eb054260fa36c93bdf526f99c12424f301f65b45724e1bf06a41"},
	{"Hurricane/QVAPORf/rel=0.001/noreg=false/f64", "5b3289679ae7cfca6711b159839375291ef88197e10c2f31ab3acd58b443a4ce", "223fa2e302d0d2d955dd8f3e09499a725207999ea6d66bee43fc0f07b7a048e9"},
	{"Hurricane/QVAPORf/rel=0.001/noreg=true/f32", "201bc6667cff3a41d799f1737142df42640545b70f8b40c8d0d537581c08a5cb", "89883a38a71506805c810d0841f1a3806c0d55ededc66a228e5158b04a104caf"},
	{"Hurricane/QVAPORf/rel=0.001/noreg=true/f64", "379d42fe1d8d9d40523b0ae8f3d20a7c5b665d8176203676332614bd98c85ef8", "63259acdae0d3f3ceb4d040709292b7b84ee083d369e3984e1bda2facc671d7e"},
	{"Hurricane/QVAPORf/rel=0.0001/noreg=false/f32", "3a61eb227f452c29876c51c7da4b78f0b8754c08282f52a791b278130bdddbe3", "62bf19a339fc6b9253077c76f648029c5e4f10bdc632767b8acad52b40352768"},
	{"Hurricane/QVAPORf/rel=0.0001/noreg=false/f64", "89673707f34e6f2997af8d9aec61499ca9be81b94606dcd396437e94f314537b", "f10b849ec175e187a3010c62f9f6a7633583f8433709c4c19b91e3a9b8b93037"},
	{"Hurricane/QVAPORf/rel=0.0001/noreg=true/f32", "f53067187c7f114c4e39d7be8a058458a7aae508a5e779681ed297d7961c285c", "c5e8d2cad61d78fcb8d2c3fe5deb97a097f8787515f3641d91f8b00e3a84e4ea"},
	{"Hurricane/QVAPORf/rel=0.0001/noreg=true/f64", "1eba6badfcb3c4efd091966deb875fd230f25fb69fa4c4cb1ae6afb6f60066b0", "8bcd06f6692af10f81b0128500bdd8545933d0260dc9d5723d6552c25794075a"},
	{"HACC/x/rel=0.01/noreg=false/f32", "f53e6a6b1bd2cdeab11245e711190c5f2daefd4d2ff3ac310ba0925fb36b2a7c", "88cc6d5a286fd3cdb1c20cf24ed4dd8802ef4b74333aa668ffd8f5e1e31865c9"},
	{"HACC/x/rel=0.01/noreg=false/f64", "3c3595274fd12995f4adf0494189a94184cbdf2be2125b6e799700b553074482", "f8f9d22c6b31f148753769e69d8d73356c9fc77e84a756644cd02d3bcbeb0006"},
	{"HACC/x/rel=0.01/noreg=true/f32", "8a8422f01740f3b7464c77fc29a8c45ed20e3bf59df793da5705fb76cca2dbc4", "0102829eca68eecf35ee4e7ca1b985c81d4efd4ef932bc856f7301139f698b12"},
	{"HACC/x/rel=0.01/noreg=true/f64", "3441ac8a91515245c73198115285d56f21a0155c12914bf781535775f9f0d1a7", "2fa22ee56d891874605ac4637fbdd28065bdaec2e1fc8bfa692b8a27f738e257"},
	{"HACC/x/rel=0.001/noreg=false/f32", "848ee511f2755e662943ab93c0a3da22ba37a3198336136f36051526e93e060b", "32c436f429877b9418a16729c47c891c4ff9a207e9520de258c4b3e9428cdb6e"},
	{"HACC/x/rel=0.001/noreg=false/f64", "7e4d9e445e11541dc50ce84f6cc4216d715ad431ef6289105fb51a114d4410f7", "6a4a3d540616bd5795d76f711959e75652c54bcca87c6f1b5f3dec1dd243c5e7"},
	{"HACC/x/rel=0.001/noreg=true/f32", "5e03400c1edc8579af0db571b6eac93ca8232bf7976928e7124395e8dd41f73c", "4a35530d7fd872e6d4c0b2f264ce49d4518acefcbce79b0e547ec376ccbea946"},
	{"HACC/x/rel=0.001/noreg=true/f64", "8c6e80a7c2a8da933c2692668d7b05f86a6ac43a21e0bf9a75a39639e6c93a1f", "c59bde9bfdf8dd83b12f7dc2faaa3343ef624570d80a5b6558e316fde77a6aa2"},
	{"HACC/x/rel=0.0001/noreg=false/f32", "7b311292d61c99b197f705aa3a05ec63241b29d9ca941f28117231b1504c711b", "a5077fc8968dc060084b597acb8ab6c13b141374c3a3c1d1a9fe2c63bf92a8c0"},
	{"HACC/x/rel=0.0001/noreg=false/f64", "8a223e9ba8a328d4e953dcf10bfd59d7c0c1f5258d2688defd424ad1fe8a8a7f", "9e89cfe50af964db443ed3b3291b21a8eb56d06d6b4018c8a96a8d4d508f6a49"},
	{"HACC/x/rel=0.0001/noreg=true/f32", "e2f0882c8f1edd84b096db9b01ab4e3e044b94a8936514a9582cc9370c0d9fbc", "c94a357187398828aba64f4e4289b88d2b6a4e1d9d50965ee7bfe079881c5b50"},
	{"HACC/x/rel=0.0001/noreg=true/f64", "d2fdf94476ce73a97cd626d017046bcc727c94efcad86512cee2ad4c183dda8a", "af494113e7d2274ae25d763578b527544d56b5e8b52c5fd90d054e2c09968dd8"},
	{"CESM/CLDHGH/rel=0.01/noreg=false/f32", "178227ab96594e79378fef346fe4b4f76083f88f690f92141ce5a70773206777", "f20b06f2b46afa6343929adb39ceaae62a86036403c6e573b3b3145ab7f6dbb0"},
	{"CESM/CLDHGH/rel=0.01/noreg=false/f64", "99706ce0133a56907cded2336548d0ca41d06b4e6bf5d9cdbea605606dfeeb58", "414498907a4ad36f4ae63284aebca7d124ef10b55c7da76a4e532f83ba4a3bad"},
	{"CESM/CLDHGH/rel=0.01/noreg=true/f32", "6c9dc679677e98530bbc535130aab357dac04bd297425248cbaf01d1b873d15b", "3ce8c04e948dccec651df9879a84cc91ea38e3688b6782153374ff589bfdc887"},
	{"CESM/CLDHGH/rel=0.01/noreg=true/f64", "b4cc6eaf354b43689cbc3ec8141e83695bd22ecd69f4164f352641185db28f55", "caf9e650abca1246a95042094aaf09590aabcdbba55c7c0b801958da97e4b5b6"},
	{"CESM/CLDHGH/rel=0.001/noreg=false/f32", "e28c371d2471918cb8608433a88e7c88d52e2c57efe56107a6ed53186d8a4f36", "ab6c49995d721f1bdc76bdd5c93a3102874da485efa4896ececcdc7e6e43acde"},
	{"CESM/CLDHGH/rel=0.001/noreg=false/f64", "f3447fc9d3f8daecb6d4d42ea6c4450371656d1e84015bd91dba2602ab0db93f", "0a9f488f65e78e380ffc19e675777af05d78fc56b9bdc9a377de305b1990c680"},
	{"CESM/CLDHGH/rel=0.001/noreg=true/f32", "0afc39e52565186426fac6d73f81b7ddf29d114b3b6d7efcb46b3c4fd24fc41f", "65f378ebfe98ffdf07259ec475195dc6504826106aef6f5eaea95f704aa8aaee"},
	{"CESM/CLDHGH/rel=0.001/noreg=true/f64", "9f0b9532bfa3feb69430d92fcf3ab3d38d55f636e4de36d413f88554d3f884e0", "1948eac4d61477fceeff8b96875f4076db220fbaf3dadcec5b2e0f367648fb12"},
	{"CESM/CLDHGH/rel=0.0001/noreg=false/f32", "0267bc5fd174db9b0eda7bc2d219724710e8175744aa24426d143e9d554bc70e", "2287ae004ae83c73454f73c59b42af4d3564577eb5c2a9e71265b3d8f6fd87be"},
	{"CESM/CLDHGH/rel=0.0001/noreg=false/f64", "efc45133acbcf2baffcf62c516c0237363a22e8afc983ebffc759c8f5068d139", "b66a4aa2c22f9b807da7e466606ac30eca72b7efab7bfacd234071e738092e0e"},
	{"CESM/CLDHGH/rel=0.0001/noreg=true/f32", "1c021487d3e96d69fa5ff761b845d496b532242a9ca684532025fa0e584ea235", "a8bc152bcb7c5f6dc331c6af82ed966c24e324db7564ed432663945fcbb135ad"},
	{"CESM/CLDHGH/rel=0.0001/noreg=true/f64", "f8f3566823a49b1eb617e2ea8c7a3483e9657e632100a6f88a312f11fcbf6aa7", "c97231d172ddd904d78661a3a5cdef7b3e80f6fc758dd976586e69a1243393af"},
	{"EXAALT/x/rel=0.01/noreg=false/f32", "084cd63552cf55d8c8970147c40a7790a0e6b456315393a38bb1918fb11d8843", "7a1840d52156cb77c266d0cd65e3c58cb1c2d22fad6298fe35f62e1b869ae5c6"},
	{"EXAALT/x/rel=0.01/noreg=false/f64", "c77cd5988af9a390fbb80f7517db4da54f3a67eade0c0b7227be6de58c066a07", "c0e0fdaf5e9dd550c5c48ea986c8a80d1a045a4d5d746136eb0729845db9ea05"},
	{"EXAALT/x/rel=0.01/noreg=true/f32", "084cd63552cf55d8c8970147c40a7790a0e6b456315393a38bb1918fb11d8843", "7a1840d52156cb77c266d0cd65e3c58cb1c2d22fad6298fe35f62e1b869ae5c6"},
	{"EXAALT/x/rel=0.01/noreg=true/f64", "c77cd5988af9a390fbb80f7517db4da54f3a67eade0c0b7227be6de58c066a07", "c0e0fdaf5e9dd550c5c48ea986c8a80d1a045a4d5d746136eb0729845db9ea05"},
	{"EXAALT/x/rel=0.001/noreg=false/f32", "7bf9eb2ce8681526f12199305dbd771ac9364597dd6aa09bf950fcdd11350107", "b3e1cfdd7cdfec11af57e7d9deaa6be8f6eeb0ef165d2140945dbfe6f8d3c61f"},
	{"EXAALT/x/rel=0.001/noreg=false/f64", "b801fa6c5579dd2b09667bb0b1dfe2f4d3b421bcb564581e3ad8b5669e0648ba", "0d80ae76ec351f430551989679657076eb86647529ce4047c64a171b50e2654c"},
	{"EXAALT/x/rel=0.001/noreg=true/f32", "7bf9eb2ce8681526f12199305dbd771ac9364597dd6aa09bf950fcdd11350107", "b3e1cfdd7cdfec11af57e7d9deaa6be8f6eeb0ef165d2140945dbfe6f8d3c61f"},
	{"EXAALT/x/rel=0.001/noreg=true/f64", "b801fa6c5579dd2b09667bb0b1dfe2f4d3b421bcb564581e3ad8b5669e0648ba", "0d80ae76ec351f430551989679657076eb86647529ce4047c64a171b50e2654c"},
	{"EXAALT/x/rel=0.0001/noreg=false/f32", "721d328a9996bb4b82377b71b6f7e93373c2e5a2328d1f2e337f9b286ba349a4", "95080cdc14e80429ad169cad74bb3ccda547aa07e888ef7ca694c2877eb1d205"},
	{"EXAALT/x/rel=0.0001/noreg=false/f64", "6bfa7f9e937be4d155cd6c0bf0e378da3aa605522f4dce2c881f7e12fd512850", "644feb662cb51ee6ffc866b38629e2477519092b7d2b9a011adff8451713bf08"},
	{"EXAALT/x/rel=0.0001/noreg=true/f32", "721d328a9996bb4b82377b71b6f7e93373c2e5a2328d1f2e337f9b286ba349a4", "95080cdc14e80429ad169cad74bb3ccda547aa07e888ef7ca694c2877eb1d205"},
	{"EXAALT/x/rel=0.0001/noreg=true/f64", "6bfa7f9e937be4d155cd6c0bf0e378da3aa605522f4dce2c881f7e12fd512850", "644feb662cb51ee6ffc866b38629e2477519092b7d2b9a011adff8451713bf08"},
	{"NYX/temperature/rel=0.01/noreg=false/f32", "c54c247acd38429637e6230daaccad5302ee186a790424ff99d1921e35d8f19a", "6710ef51a6abc92a5787f70efa716eb86e49f5e02b97df739b5b6bb68dab7e67"},
	{"NYX/temperature/rel=0.01/noreg=false/f64", "63dd299014f5bd51ee7638f06d0418aacbf88b0b86ee5666a5ae3ebe78046059", "1807180ed9efc6db947b069d923d3ee27e889fde2014db2e2c536f29ede63fae"},
	{"NYX/temperature/rel=0.01/noreg=true/f32", "a97389f3ed9578dba826bfd4a7b0d05a1f816cb78f17a2b05188a6895921d293", "4486fc65b27432f1af5ae87d628e3c106351523236cd1daf6437e7b82d3521bb"},
	{"NYX/temperature/rel=0.01/noreg=true/f64", "f110c602769e3e451d826f71d74a38e3fe0f71462e583c47fd9de592a3ba1975", "8658570f8f5581fb40f25ba8fafb32d1604198343945c06109ab66b8ba691dc5"},
	{"NYX/temperature/rel=0.001/noreg=false/f32", "3f62d28b16982e9a154eb065882508d58c669eee3c4cfb69bbbf03b6619a01dd", "9ab9fbf90f060b5d95c1ce1196268cf2ef605eded02216bd6aed593f37e6682e"},
	{"NYX/temperature/rel=0.001/noreg=false/f64", "a21f9af623527230d8499994e0a604235173850056cd272e7faacd17b5c0068f", "a76b94b21d13ae013df3186f3f5b5258f54dbf42c89b65af564ca1b21ee978df"},
	{"NYX/temperature/rel=0.001/noreg=true/f32", "bfb3ac7772f7af59d856a811780a15742b4ac6b74594fff37ab1b157b547a038", "d6e71fe6c8fb8a585128950365a80f5628c16b16ae16f35fb9e8aff15d5ea529"},
	{"NYX/temperature/rel=0.001/noreg=true/f64", "ccfcd6761e999466840de7338b6226e8d5408050b5d2b8729ab2dc600aabe83b", "e3ab84e69f78890bdf6adf774d1a1252eb9bd9cbab46705c74c95d52d8fac0d2"},
	{"NYX/temperature/rel=0.0001/noreg=false/f32", "f6ca08a8bda068d791727790e682c57743f81a383654466bf55e73cd9356df46", "72899eb79aaec02757db363dfb1c5540e3212906a137de1b7e52e15b40e1c291"},
	{"NYX/temperature/rel=0.0001/noreg=false/f64", "2b3487c2f2062e0308de0a44e84c5d6a7a8be8b9fa8d1ce2f28328ee102998a7", "d9b46452e74da15caa63acf87aae0f9b90a0579bd98819e6bae34f56429f0d60"},
	{"NYX/temperature/rel=0.0001/noreg=true/f32", "459b04f830cc92a3e51dc8e6f096d3dfaf437eac76e4958bc5feb640360aa901", "e58c8338c7d54a63091d740c458da4ab71ff070e8fefe1409c1c2f8addcc94fd"},
	{"NYX/temperature/rel=0.0001/noreg=true/f64", "deec94b5f579b6805ba1da9af5014673105b77fd2aaafe538712891cea1be8e4", "c8aad8faf8b1461d652cff6acc4d089557d4335639e9190e85588a4b8cc30ee4"},
	{"odd1d/f32", "027c3284001e982290378fa26db27c2c8aeecb83cdbe615cb87f346a7a3f3ad4", "fca63bc8b03843b0477ba13785a0cadfa29d34386f6b9e8b8884e23912ee02b8"},
	{"odd1d/f64", "5a43d82f3f4da3b9d386fa3693709c5c147d62f187fc1ef35d62ac165eacc437", "ead90a411aaefda24ae18c3410223a2da75788ba5b5bd7badd3f6c069823afd2"},
	{"odd2d/f32", "6ce64b8c15d6dd0104348d0fc767c6202cdc0331e2d08881390e1e4e61b91ac0", "28714bb118bcbf2e1a01ac781de077d2833e6a91a75649ecff53a8ce5673d3d0"},
	{"odd2d/f64", "8d3c080b270c531d7a2a390d2dd0cc39147fc2dd76c7289a6757cbef0616af21", "7457c28aa3a32bd0c5ab6746d0d6d1c346ffe3f06fd995b9d38582644a138bb2"},
	{"odd3d/f32", "2cf776bea588d1e28fb6675250d44a9aa036f415ce23b417c128217d9678b0a7", "0eb8c84d1bc7a63ea6f4eacce5b067605eade9802f82954c56eb981e70611870"},
	{"odd3d/f64", "f6dea93674da944772ded5cedd10596f403c503cd0c5ff65ef8144e18dec1874", "50a6e9c14246118d4865e823230ba38bd92e8b638d8c46d73d7926b3e72e215d"},
	{"thin3d/f32", "fce1580b0e865e688e13b0367fdea4ea9b71b0d58c2df28c6da99aa26ed0a5b8", "ad91b055e29e19be1532edb01a258b55561199a117ef21cd4cbbf9ddd6302946"},
	{"thin3d/f64", "9d63c969e6c8af1af16660ef3f38b4c03d182ebe3046a19317b134bee7b35f78", "112f889c9f563725b71ee8dc0cfd8c44ef9faf9245b315bf2eef0ce2490725e6"},
	{"odd4d/f32", "ea5247c2a66bdcd102b1d0ad01a7d01e72f3e07a800fa0b18e921fb07a7653fe", "e9fa33d6ca416e9546b65d28d26f2e57fa81c41fa6dc9fe4f0316cb8eacb45ba"},
	{"odd4d/f64", "a08b8b36b09debf82c0e8d9f72fb6afaf948acfb4ca0223b5948634783f99c08", "00ac6c56c6372e0fe79b54dabc5fee0afa5920af4c85bd183d71d168cd8326e1"},
	{"nonfinite3d/f32", "6e60e3a47390f854484bfc049dee87206189519c868ceefa6fc1ed7e5aad4610", "8f351c4024338ee058b0c0e7b1898b0700191f00e29aabdcd71583c9edf5eda9"},
	{"nonfinite3d/f64", "384619b2366d4a61486ab4068f0d2255e0fff2969000c951f32efcbd260dccfa", "7e0e3ccf2636bc34c03c4b0d12b38677a0727b4a8bf3a47e8131e1d7e1b60357"},
	{"narrow3d/f32", "f7c4c7545c47bb13e9599f38589c6c1cc425abed89e0e2f9267c6778e048b636", "e10857620c806eff01b78b8be5f6088d0f39c1b8b0c56a1bb2d578ff7e3657ab"},
	{"narrow3d/f64", "b0686cd901b05645819d0badbc2b03af03d735d3630bdf4696f28d35698f3e99", "fd866949ef309ab8129d563c1f06d1257cfb5421e8d12c856ba41ebd02ceee4c"},
}
