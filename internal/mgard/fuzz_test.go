package mgard

import (
	"encoding/binary"
	"testing"

	"fraz/internal/grid"
)

// FuzzDecompress feeds arbitrary bytes to the stream decoder at both element
// widths. Decompress must return an error for anything it cannot parse and
// never panic; a stream that does parse must decode to its header's shape.
func FuzzDecompress(f *testing.F) {
	d3, s3 := field3D(5, 6, 7, 2)
	d2, s2 := field2D(9, 11, 3)
	d64 := make([]float64, len(d2))
	for i, v := range d2 {
		d64[i] = float64(v)
	}
	for _, opts := range []Options{{Norm: NormInfinity, Bound: 1e-2}, {Norm: NormL2, Bound: 1e-4}} {
		if comp, err := Compress(d3, s3, opts); err == nil {
			f.Add(comp)
		}
		if comp, err := Compress(d64, s2, opts); err == nil {
			f.Add(comp)
		}
	}
	f.Add(forgedLiteralStream(f))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, buf []byte) {
		checkDecompress[float32](t, buf)
		checkDecompress[float64](t, buf)
	})
}

func checkDecompress[T grid.Float](t *testing.T, buf []byte) {
	out, err := Decompress[T](buf, nil)
	if err != nil {
		return
	}
	// A decodable stream's shape sits after the 15-byte fixed header.
	nd := int(buf[6])
	shape := make(grid.Dims, nd)
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(buf[15+4*i:]))
	}
	if len(out) != shape.Len() {
		t.Fatalf("decoded %d values for shape %v", len(out), shape)
	}
}
