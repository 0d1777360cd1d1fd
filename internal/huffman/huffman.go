// Package huffman implements a canonical Huffman coder over 32-bit integer
// symbols. It is the entropy-coding stage (stage 3) of the SZ-like
// compressor and the back end of the MGARD-like compressor: both produce
// streams of quantization codes whose distribution is heavily skewed toward
// a small number of values, which is exactly the regime where Huffman coding
// shines.
//
// The encoded container is self-describing: it stores the symbol table
// (symbol values and code lengths), the number of encoded symbols, and the
// bit stream, so Decode needs no side information.
//
// Codes are canonical and MSB-first: the bit stream (laid out as
// bitstream.Writer lays it, first bit in bit 0 of each byte) carries each
// code's most significant bit first.
//
// Both directions are table driven, with no map on either path. Encode
// counts symbols in a dense array indexed by symbol over the observed range
// of the window (-denseHalf, denseHalf), where quantization codes live;
// symbols outside it, such as the compressors' 1<<30 unpredictable marker,
// go through a small sorted side list. The code table is dense the same
// way, and each code is emitted as one write of its bit-reversed value into
// a buffer of the container's exact size, which lays the bits out exactly
// as an MSB-first bit loop would. Decode resolves every code of up to
// peekBits bits with one lookup on the next peekBits stream bits and falls
// back to the canonical bit-by-bit walk only for longer codes. The scratch
// tables come from internal/pool. The emitted bytes are pinned by SHA-256
// in golden_test.go.
package huffman

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"fraz/internal/pool"
)

// maxCodeLen is the maximum admissible code length. With canonical coding and
// realistic alphabet sizes (< 2^20 distinct symbols) this is never exceeded;
// it exists to bound the decoder tables.
const maxCodeLen = 58

// ErrCorrupt is returned when a Huffman container fails to parse.
var ErrCorrupt = errors.New("huffman: corrupt stream")

// codeEntry is a canonical code assignment for one symbol.
type codeEntry struct {
	symbol int32
	length uint8
	code   uint64
}

// mergeHeap is a binary min-heap of tree node indices ordered by frequency,
// ties broken by index: leaves in symbol order, then internal nodes in
// creation order. That is a strict total order, so the tree — and the
// encoding — is reproducible across runs and platforms.
type mergeHeap struct {
	freq []uint64 // per node
	h    []int
}

func (m *mergeHeap) less(a, b int) bool {
	return m.freq[a] < m.freq[b] || m.freq[a] == m.freq[b] && a < b
}

func (m *mergeHeap) down(i int) {
	h := m.h
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && m.less(h[c+1], h[c]) {
			c++
		}
		if !m.less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (m *mergeHeap) pop() int {
	top := m.h[0]
	last := len(m.h) - 1
	m.h[0] = m.h[last]
	m.h = m.h[:last]
	m.down(0)
	return top
}

// merge adds the internal node joining a and b.
func (m *mergeHeap) merge(a, b int) {
	id := len(m.freq)
	m.freq = append(m.freq, m.freq[a]+m.freq[b])
	m.h = append(m.h, id)
	h := m.h
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !m.less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// buildCodeLengths computes Huffman code lengths for each distinct symbol by
// repeatedly merging the two lightest nodes.
func buildCodeLengths(symbols []int32, freqs []uint64) []codeEntry {
	n := len(symbols)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []codeEntry{{symbol: symbols[0], length: 1}}
	}
	// Nodes 0..n-1 are the leaves; node n+i is the i-th merge, of
	// children[i].
	m := mergeHeap{freq: make([]uint64, n, 2*n-1), h: make([]int, n, n+1)}
	copy(m.freq, freqs)
	for i := range m.h {
		m.h[i] = i
	}
	for i := n/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	children := make([][2]int, n-1)
	for i := range children {
		a := m.pop()
		b := m.pop()
		children[i] = [2]int{a, b}
		m.merge(a, b)
	}
	// Children are created before their parent, so one pass from the root
	// (the last node) down assigns every depth.
	depth := make([]uint8, 2*n-1)
	for i := n - 2; i >= 0; i-- {
		d := depth[n+i] + 1
		depth[children[i][0]] = d
		depth[children[i][1]] = d
	}
	entries := make([]codeEntry, n)
	for i := range entries {
		entries[i] = codeEntry{symbol: symbols[i], length: depth[i]}
	}
	return entries
}

// assignCanonical sorts entries by (length, symbol) and assigns canonical
// codes. The same procedure is used by the decoder to reconstruct codes from
// lengths alone.
func assignCanonical(entries []codeEntry) {
	slices.SortFunc(entries, func(a, b codeEntry) int {
		if a.length != b.length {
			return int(a.length) - int(b.length)
		}
		return cmp.Compare(a.symbol, b.symbol)
	})
	var code uint64
	var prevLen uint8
	for i := range entries {
		if i > 0 {
			code++
			code <<= entries[i].length - prevLen
		}
		entries[i].code = code
		prevLen = entries[i].length
	}
}

// denseHalf bounds the dense histogram window: symbols s with
// -denseHalf < s < denseHalf are counted and coded through arrays indexed by
// s - lo, sized to the observed range. It covers every code of the default
// 65536-interval quantizer.
const denseHalf = 1 << 16

// histogram holds the symbol frequencies of one stream.
type histogram struct {
	lo       int32    // symbol of dense[0]
	dense    []uint64 // pooled: dense[s-lo] is the count of symbol s
	outSyms  []int32  // distinct symbols outside the window, ascending
	outFreqs []uint64 // outFreqs[i] is the count of outSyms[i]
}

func newHistogram(data []int32) histogram {
	lo, hi := int32(denseHalf), int32(-denseHalf)
	var out []int32
	for _, s := range data {
		if s <= -denseHalf || s >= denseHalf {
			out = append(out, s)
			continue
		}
		lo = min(lo, s)
		hi = max(hi, s)
	}
	var h histogram
	if lo <= hi {
		h.lo = lo
		h.dense = pool.GetUint64(int(hi-lo) + 1)
		clear(h.dense)
		n := uint32(len(h.dense))
		for _, s := range data {
			if u := uint32(s) - uint32(lo); u < n {
				h.dense[u]++
			}
		}
	}
	slices.Sort(out)
	for i := 0; i < len(out); {
		j := i + 1
		for j < len(out) && out[j] == out[i] {
			j++
		}
		h.outSyms = append(h.outSyms, out[i])
		h.outFreqs = append(h.outFreqs, uint64(j-i))
		i = j
	}
	//frazlint:allow poolcheck -- custody of h.dense moves to the caller; release() puts it
	return h
}

// outIndex returns the position of outlier symbol s in outSyms.
func (h *histogram) outIndex(s int32) int {
	j, _ := slices.BinarySearch(h.outSyms, s)
	return j
}

// count returns the frequency of symbol s.
func (h *histogram) count(s int32) uint64 {
	if u := uint32(s) - uint32(h.lo); u < uint32(len(h.dense)) {
		return h.dense[u]
	}
	if j := h.outIndex(s); j < len(h.outSyms) && h.outSyms[j] == s {
		return h.outFreqs[j]
	}
	return 0
}

// release returns the dense table to the pool.
func (h *histogram) release() {
	pool.PutUint64(h.dense)
	h.dense = nil
}

// symbols lists the distinct symbols in ascending order with their counts.
// Outliers below the window precede the dense range, those above follow it.
func (h *histogram) symbols() ([]int32, []uint64) {
	n := len(h.outSyms)
	for _, c := range h.dense {
		if c > 0 {
			n++
		}
	}
	syms := make([]int32, 0, n)
	freqs := make([]uint64, 0, n)
	split, _ := slices.BinarySearch(h.outSyms, 0)
	syms = append(syms, h.outSyms[:split]...)
	freqs = append(freqs, h.outFreqs[:split]...)
	for i, c := range h.dense {
		if c > 0 {
			syms = append(syms, h.lo+int32(i))
			freqs = append(freqs, c)
		}
	}
	syms = append(syms, h.outSyms[split:]...)
	freqs = append(freqs, h.outFreqs[split:]...)
	return syms, freqs
}

// lenShift places a code's length above its bit-reversed value in a packed
// code-table entry; maxCodeLen < lenShift keeps the two fields apart.
const lenShift = 58

// Encode compresses the symbol stream into a self-describing byte container.
func Encode(data []int32) ([]byte, error) {
	h := newHistogram(data)
	defer h.release()
	symbols, freqs := h.symbols()
	entries := buildCodeLengths(symbols, freqs)
	assignCanonical(entries)

	// Packed code tables: bit-reversed code | length<<lenShift, dense by
	// symbol for the window, parallel to outSyms for the outliers. Only
	// present symbols are ever looked up, so the pooled table needs no
	// clearing.
	table := pool.GetUint64(len(h.dense))
	defer pool.PutUint64(table)
	outTable := make([]uint64, len(h.outSyms))
	payloadBits := 0
	for _, e := range entries {
		if e.length > maxCodeLen {
			return nil, fmt.Errorf("huffman: code length %d exceeds limit %d", e.length, maxCodeLen)
		}
		packed := bits.Reverse64(e.code)>>(64-e.length) | uint64(e.length)<<lenShift
		if u := uint32(e.symbol) - uint32(h.lo); u < uint32(len(table)) {
			table[u] = packed
		} else {
			outTable[h.outIndex(e.symbol)] = packed
		}
		payloadBits += int(e.length) * int(h.count(e.symbol))
	}

	// Header: numSymbols(u32), numEntries(u32), then per entry symbol(i32) +
	// length(u8); then the bit stream. The container is built in one buffer
	// of its exact size.
	hdr := 8 + 5*len(entries)
	out := make([]byte, hdr+(payloadBits+7)/8)
	binary.LittleEndian.PutUint32(out[0:], uint32(len(data)))
	binary.LittleEndian.PutUint32(out[4:], uint32(len(entries)))
	for i, e := range entries {
		binary.LittleEndian.PutUint32(out[8+5*i:], uint32(e.symbol))
		out[8+5*i+4] = e.length
	}

	w := payloadWriter{dst: out[hdr:]}
	n := uint32(len(table))
	for _, s := range data {
		var e uint64
		if u := uint32(s) - uint32(h.lo); u < n {
			e = table[u]
		} else {
			e = outTable[h.outIndex(s)]
		}
		v, l := e&(1<<lenShift-1), uint(e>>lenShift)
		if l > 32 {
			// Only streams of millions of symbols grow codes this long.
			w.put(v&0xFFFFFFFF, 32)
			v >>= 32
			l -= 32
		}
		w.put(v, l)
	}
	w.flush()
	return out, nil
}

// payloadWriter lays bits out as bitstream.Writer does (first bit in bit 0
// of each byte) into a buffer sized in advance, through a 64-bit accumulator
// flushed 32 bits at a time. Fewer than 32 bits are pending before each put,
// so a value of up to 32 bits always fits.
type payloadWriter struct {
	dst []byte
	p   int
	acc uint64
	n   uint
}

// put appends the l low bits of v, low bit first; l must be at most 32.
func (w *payloadWriter) put(v uint64, l uint) {
	w.acc |= v << w.n
	w.n += l
	if w.n >= 32 {
		w.spill()
	}
}

// spill writes the low 32 pending bits.
func (w *payloadWriter) spill() {
	binary.LittleEndian.PutUint32(w.dst[w.p:], uint32(w.acc))
	w.p += 4
	w.acc >>= 32
	w.n -= 32
}

// flush writes the pending bits, zero padded, to the rest of the buffer.
func (w *payloadWriter) flush() {
	for ; w.p < len(w.dst); w.p++ {
		w.dst[w.p] = byte(w.acc)
		w.acc >>= 8
	}
}

// peekBits is the width of Decode's lookup table: codes of up to peekBits
// bits resolve in one lookup on the next peekBits stream bits.
const peekBits = 11

// Decode reverses Encode, returning the original symbol stream. The slice
// comes from internal/pool; callers may hand it back with pool.PutInt32.
func Decode(buf []byte) ([]int32, error) {
	if len(buf) < 8 {
		return nil, ErrCorrupt
	}
	count := int(binary.LittleEndian.Uint32(buf[0:4]))
	numEntries := int(binary.LittleEndian.Uint32(buf[4:8]))
	pos := 8
	if numEntries < 0 || pos+numEntries*5 > len(buf) {
		return nil, ErrCorrupt
	}
	if count == 0 {
		return []int32{}, nil
	}
	// Every code is at least one bit long, so a count beyond the payload's
	// bit length is corrupt; checking it first keeps a forged count from
	// sizing the output.
	payload := buf[pos+numEntries*5:]
	if numEntries == 0 || count > 8*len(payload) {
		return nil, ErrCorrupt
	}
	entries := make([]codeEntry, numEntries)
	maxLen := uint8(0)
	for i := 0; i < numEntries; i++ {
		sym := int32(binary.LittleEndian.Uint32(buf[pos : pos+4]))
		length := buf[pos+4]
		pos += 5
		if length == 0 || length > maxCodeLen {
			return nil, ErrCorrupt
		}
		entries[i] = codeEntry{symbol: sym, length: length}
		maxLen = max(maxLen, length)
	}
	assignCanonical(entries)

	// Canonical decoding tables indexed by code length: the first code of
	// each length and the index of the first symbol of that length.
	var firstCode [maxCodeLen + 2]uint64
	var firstIndex, countsByLen [maxCodeLen + 2]int
	for _, e := range entries {
		countsByLen[e.length]++
	}
	idx := 0
	var code uint64
	for l := 1; l <= maxCodeLen; l++ {
		firstCode[l] = code
		firstIndex[l] = idx
		code += uint64(countsByLen[l])
		idx += countsByLen[l]
		code <<= 1
	}

	// Lookup table over the next k stream bits (stream order, first bit in
	// bit 0): symbol in the low 32 bits, code length above, 0 for a prefix
	// that matches no code of up to k bits. It encodes exactly what the
	// canonical walk decides: the shortest length l whose l-bit prefix value
	// lies in [firstCode[l], firstCode[l]+countsByLen[l]). Filling from the
	// longest length down lets shorter matches overwrite longer ones.
	k := uint(min(maxLen, peekBits))
	lookup := pool.GetUint64(1 << k)
	defer pool.PutUint64(lookup)
	clear(lookup)
	for l := k; l >= 1; l-- {
		end := min(firstCode[l]+uint64(countsByLen[l]), uint64(1)<<l)
		for a := firstCode[l]; a < end; a++ {
			sym := entries[firstIndex[l]+int(a-firstCode[l])].symbol
			v := uint64(uint32(sym)) | uint64(l)<<32
			for j := bits.Reverse64(a) >> (64 - l); j < 1<<k; j += 1 << l {
				lookup[j] = v
			}
		}
	}

	// acc holds the next nacc stream bits, first bit in bit 0; bits above
	// nacc are zero. A refill tops it up a byte at a time to at least 57
	// bits, or to the end of the payload.
	var acc uint64
	var nacc uint
	p := 0
	out := pool.GetInt32(count)
	mask := uint64(1)<<k - 1
	for i := range out {
		if nacc < k {
			for nacc <= 56 && p < len(payload) {
				acc |= uint64(payload[p]) << nacc
				p++
				nacc += 8
			}
		}
		if e := lookup[acc&mask]; e != 0 {
			l := uint(e >> 32)
			if l > nacc {
				pool.PutInt32(out)
				return nil, ErrCorrupt
			}
			out[i] = int32(uint32(e))
			acc >>= l
			nacc -= l
			continue
		}
		// Longer than k bits (or no code at all): the canonical walk.
		var c uint64
		for l := 1; ; l++ {
			if nacc == 0 && p < len(payload) {
				acc = uint64(payload[p])
				p++
				nacc = 8
			}
			if nacc == 0 || l > maxCodeLen {
				pool.PutInt32(out)
				return nil, ErrCorrupt
			}
			c = c<<1 | acc&1
			acc >>= 1
			nacc--
			if n := countsByLen[l]; n > 0 && c >= firstCode[l] && c-firstCode[l] < uint64(n) {
				out[i] = entries[firstIndex[l]+int(c-firstCode[l])].symbol
				break
			}
		}
	}
	return out, nil
}

// EstimatedBits returns the number of payload bits an encoding of data would
// use (excluding the header). It is a convenience for compression-ratio
// modelling in tests.
func EstimatedBits(data []int32) int {
	h := newHistogram(data)
	defer h.release()
	symbols, freqs := h.symbols()
	total := 0
	for _, e := range buildCodeLengths(symbols, freqs) {
		total += int(e.length) * int(h.count(e.symbol))
	}
	return total
}
