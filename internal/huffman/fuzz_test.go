package huffman

import (
	"encoding/binary"
	"testing"
)

// FuzzDecode checks both directions of the coder. Arbitrary bytes fed to
// Decode must be rejected or decoded, never panic, and never yield more
// symbols than the payload has bits. The same bytes read as little-endian
// int32 symbols must survive Encode→Decode unchanged.
func FuzzDecode(f *testing.F) {
	for _, data := range goldenStreams() {
		if enc, err := Encode(data[:min(len(data), 300)]); err == nil {
			f.Add(enc)
		}
	}
	f.Add(forgedCountStream())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, buf []byte) {
		if out, err := Decode(buf); err == nil && len(out) > 8*len(buf) {
			t.Fatalf("decoded %d symbols from %d bytes", len(out), len(buf))
		}
		syms := make([]int32, len(buf)/4)
		for i := range syms {
			syms[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		enc, err := Encode(syms)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode of Encode output: %v", err)
		}
		if len(dec) != len(syms) {
			t.Fatalf("round trip length %d, want %d", len(dec), len(syms))
		}
		for i := range syms {
			if dec[i] != syms[i] {
				t.Fatalf("round trip symbol %d: %d, want %d", i, dec[i], syms[i])
			}
		}
	})
}
