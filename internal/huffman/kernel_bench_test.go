package huffman_test

import (
	"encoding/binary"
	"math"
	"testing"

	"fraz/internal/dataset"
	"fraz/internal/huffman"
	"fraz/internal/pool"
	"fraz/internal/sz"
)

// szCodes returns the quantization codes sz emits for medium Hurricane
// QVAPORf at the given bound relative to the value range. At 1e-3 (about
// 9x, the fixed-ratio regime) the codes cluster around zero; at 1e-5 they
// spread wider and include the unpredictable marker.
func szCodes(b *testing.B, rel float64) []int32 {
	b.Helper()
	ds, err := dataset.New("Hurricane", dataset.ScaleMedium)
	if err != nil {
		b.Fatal(err)
	}
	data, shape, err := ds.Generate("QVAPORf", 0)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range data {
		lo, hi = math.Min(lo, float64(v)), math.Max(hi, float64(v))
	}
	comp, err := sz.Compress(data, shape, sz.Options{ErrorBound: rel * (hi - lo), DisableDictionary: true})
	if err != nil {
		b.Fatal(err)
	}
	// Without the dictionary stage an sz stream is its 22+4·rank-byte
	// header, the length-prefixed block metadata, then the length-prefixed
	// Huffman container.
	pos := 22 + 4*shape.NDims()
	pos += 4 + int(binary.LittleEndian.Uint32(comp[pos:]))
	n := int(binary.LittleEndian.Uint32(comp[pos:]))
	codes, err := huffman.Decode(comp[pos+4 : pos+4+n])
	if err != nil {
		b.Fatal(err)
	}
	return codes
}

var kernelBounds = []struct {
	name string
	rel  float64
}{{"rel=1e-3", 1e-3}, {"rel=1e-5", 1e-5}}

// BenchmarkEncodeSZCodes measures Encode on real sz code streams; bytes are
// the 4-byte codes consumed.
func BenchmarkEncodeSZCodes(b *testing.B) {
	for _, kb := range kernelBounds {
		b.Run(kb.name, func(b *testing.B) {
			codes := szCodes(b, kb.rel)
			b.SetBytes(int64(4 * len(codes)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := huffman.Encode(codes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeSZCodes measures Decode on the same streams; bytes are the
// 4-byte codes produced.
func BenchmarkDecodeSZCodes(b *testing.B) {
	for _, kb := range kernelBounds {
		b.Run(kb.name, func(b *testing.B) {
			codes := szCodes(b, kb.rel)
			enc, err := huffman.Encode(codes)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(4 * len(codes)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := huffman.Decode(enc)
				if err != nil {
					b.Fatal(err)
				}
				pool.PutInt32(out)
			}
		})
	}
}
