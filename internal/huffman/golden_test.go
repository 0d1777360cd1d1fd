package huffman

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// unpredictableMarker is the quantization code sz and mgard emit for values
// stored verbatim; it sits far outside the range of ordinary codes.
const unpredictableMarker = int32(1 << 30)

// goldenStreams returns deterministic symbol streams shaped like the codes
// the compressors emit: a skewed cluster around zero, the unpredictable
// marker, and far outliers on both sides.
func goldenStreams() map[string][]int32 {
	rng := rand.New(rand.NewSource(14))
	skewed := make([]int32, 50000)
	for i := range skewed {
		r := rng.Float64()
		switch {
		case r < 0.6:
			skewed[i] = 0
		case r < 0.9:
			skewed[i] = int32(rng.Intn(9) - 4)
		case r < 0.99:
			skewed[i] = int32(rng.Intn(2001) - 1000)
		case r < 0.995:
			skewed[i] = unpredictableMarker
		default:
			skewed[i] = int32(rng.Intn(5)) - 3000000
		}
	}
	wide := make([]int32, 20000)
	for i := range wide {
		wide[i] = int32(rng.Intn(65536) - 32768)
	}
	wide[7] = unpredictableMarker
	wide[19999] = -1 << 31
	wide[100] = 1<<31 - 1
	return map[string][]int32{
		"skewed-marker": skewed,
		"wide":          wide,
		"marker-only":   {unpredictableMarker, unpredictableMarker, unpredictableMarker},
		"single":        {5},
	}
}

var goldenPins = map[string]string{
	"skewed-marker": "ad982ff9242eec2545721f7d6013864e65ffea88b308313069dd549b475c17a7",
	"wide":          "8efb8eb99ae122e48cc97e6d79ad15d7d725451f7f15ddd5b97a9a472aaf1fa6",
	"marker-only":   "0b8e282bc1d277ed011e7941a0a7b305bda5b2a037392efbe333ba84ddf89f96",
	"single":        "7853302ff66ebc2d9441f317a0240080b0aa643499bf28b6f6cb7a9e738e9e1e",
}

// TestGoldenEncode pins the SHA-256 of Encode's output, so a faster coder
// must emit exactly the same container, and checks each stream round-trips.
func TestGoldenEncode(t *testing.T) {
	streams := goldenStreams()
	if len(streams) != len(goldenPins) {
		t.Errorf("%d streams, %d pins", len(streams), len(goldenPins))
	}
	for name, data := range streams {
		enc, err := Encode(data)
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != goldenPins[name] {
			t.Errorf("%s: sha256 %s, pinned %s", name, got, goldenPins[name])
		}
		roundTrip(t, data)
	}
}
