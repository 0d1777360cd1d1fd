package sz

import (
	"testing"

	"fraz/internal/grid"
)

// FuzzDecompress feeds arbitrary bytes to the stream decoder at both element
// widths. Decompress must return an error for anything it cannot parse and
// never panic; a stream that does parse must decode to its header's shape.
func FuzzDecompress(f *testing.F) {
	data, shape := synthetic3D(5, 6, 7, 3)
	d64 := make([]float64, len(data))
	for i, v := range data {
		d64[i] = float64(v)
	}
	for _, opts := range []Options{
		{ErrorBound: 1e-2},
		{ErrorBound: 1e-3, DisableDictionary: true},
		{ErrorBound: 1e-4, Intervals: 16, DisableRegression: true},
	} {
		if comp, err := Compress(data, shape, opts); err == nil {
			f.Add(comp)
		}
		if comp, err := Compress(d64, shape, opts); err == nil {
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
	shape, err := DecompressHeaderShape(buf)
	if err != nil {
		t.Fatalf("decode succeeded but the header does not parse: %v", err)
	}
	if len(out) != shape.Len() {
		t.Fatalf("decoded %d values for shape %v", len(out), shape)
	}
}
