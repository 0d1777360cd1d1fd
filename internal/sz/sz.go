// Package sz implements a pure-Go error-bounded lossy compressor modelled on
// the SZ compressor (Di & Cappello, IPDPS'16; Tao et al., IPDPS'17; Liang et
// al., Big Data'18) that the paper uses as its primary back end.
//
// The pipeline mirrors SZ's four stages:
//
//  1. blockwise data prediction with a hybrid predictor: a one-layer Lorenzo
//     predictor (operating on previously reconstructed values) or a
//     block-local linear regression, selected per block;
//  2. linear-scaling quantization of the prediction residual under an
//     absolute error bound;
//  3. customized Huffman encoding of the quantization codes;
//  4. a dictionary-encoder stage (DEFLATE via compress/flate, standing in
//     for Gzip/Zstd) over the Huffman bytes and literals.
//
// Because the Lorenzo predictor consumes *reconstructed* values and the
// dictionary stage operates on the Huffman output, the achieved compression
// ratio is not a monotonic function of the error bound — the behaviour that
// motivates FRaZ's global (rather than bisection) search (paper Fig. 3).
package sz

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"fraz/internal/grid"
	"fraz/internal/huffman"
	"fraz/internal/pool"
	"fraz/internal/quantize"
)

// magic32 and magic64 identify SZ-Go compressed streams of float32 and
// float64 data respectively. The element width is part of the magic, so a
// stream can never be reinterpreted at the wrong precision — and float32
// streams keep the exact bytes earlier builds wrote.
const (
	magic32 = 0x535A4731 // "SZG1"
	magic64 = 0x535A4732 // "SZG2"
)

// magicFor returns the stream magic for element type T.
func magicFor[T grid.Float]() uint32 {
	if grid.ElemSize[T]() == 4 {
		return magic32
	}
	return magic64
}

// unpredictable is the quantization-code marker for values stored verbatim.
const unpredictable = int32(1 << 30)

// Predictor selectors stored per block.
const (
	predLorenzo = 0
	predRegress = 1
)

// Options configures compression.
type Options struct {
	// ErrorBound is the absolute error bound (must be > 0).
	ErrorBound float64
	// BlockSize is the block edge length; 0 selects the SZ default
	// (6 for 3-D, 12 for 2-D, 128 for 1-D).
	BlockSize int
	// Intervals is the number of linear-scaling quantization intervals;
	// 0 selects the SZ default of 65536.
	Intervals int
	// DisableRegression forces the Lorenzo predictor everywhere. Used by
	// ablation benchmarks.
	DisableRegression bool
	// DisableDictionary skips the DEFLATE stage. Used by ablation benchmarks.
	DisableDictionary bool
}

func (o *Options) withDefaults(ndims int) Options {
	out := *o
	if out.BlockSize == 0 {
		switch ndims {
		case 1:
			out.BlockSize = 128
		case 2:
			out.BlockSize = 12
		default:
			out.BlockSize = 6
		}
	}
	if out.Intervals == 0 {
		out.Intervals = quantize.DefaultIntervals
	}
	return out
}

// ErrInvalidInput is returned when the data or options are malformed.
var ErrInvalidInput = errors.New("sz: invalid input")

// ErrCorrupt is returned by Decompress for unparsable streams.
var ErrCorrupt = errors.New("sz: corrupt stream")

// Compress compresses data of the given shape under the options' absolute
// error bound and returns the compressed byte stream, which is
// self-describing (Decompress needs no side information).
func Compress[T grid.Float](data []T, shape grid.Dims, opts Options) ([]byte, error) {
	if err := shape.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	if len(data) != shape.Len() {
		return nil, fmt.Errorf("%w: data length %d does not match shape %v", ErrInvalidInput, len(data), shape)
	}
	o := opts.withDefaults(shape.NDims())
	q, err := quantize.NewWithIntervals(o.ErrorBound, o.Intervals)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}

	// recon and codes are compression-internal scratch: recon is only read at
	// offsets already reconstructed (block-major row-major order guarantees
	// every Lorenzo neighbour is written first), and exactly one code is
	// emitted per point, so the pooled capacity is never exceeded.
	blocks := shape.Blocks(o.BlockSize)
	enc := &encoder[T]{
		q:        q,
		bound:    o.ErrorBound,
		data:     data,
		recon:    getFloats[T](len(data)),
		codes:    pool.GetInt32(len(data))[:0],
		literals: make([]T, 0),
	}
	defer func() {
		putFloats(enc.recon)
		pool.PutInt32(enc.codes)
	}()
	blockMeta := make([]byte, 0, len(blocks)*17)

	strides := shape.Strides()
	for _, b := range blocks {
		useRegress := false
		var coeffs [4]float64
		if !o.DisableRegression && b.Len() >= 8 {
			// Least-squares fit of value ~ c0 + c1*i0 + c2*i1 + c3*i2 over
			// the block's original data (block-local coordinates; unused
			// dimensions get zero coefficients), kept only when it beats
			// Lorenzo on that data.
			coeffs = solve4(enc.gram(b.Size), enc.regressionRHS(strides, b))
			useRegress = enc.regressionBeatsLorenzo(strides, b, coeffs)
		}
		if useRegress {
			blockMeta = append(blockMeta, predRegress)
			var tmp [8]byte
			for _, c := range coeffs {
				binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(c))
				blockMeta = append(blockMeta, tmp[:]...)
			}
			enc.regressBlock(strides, b, coeffs)
		} else {
			blockMeta = append(blockMeta, predLorenzo)
			enc.lorenzoBlock(strides, b)
		}
	}
	literals := enc.literals

	huffBytes, err := huffman.Encode(enc.codes)
	if err != nil {
		return nil, fmt.Errorf("sz: huffman stage: %w", err)
	}

	// Assemble the uncompressed container, then run the dictionary stage.
	var payload bytes.Buffer
	writeUint32(&payload, uint32(len(blockMeta)))
	payload.Write(blockMeta)
	writeUint32(&payload, uint32(len(huffBytes)))
	payload.Write(huffBytes)
	writeUint32(&payload, uint32(len(literals)))
	writeLiterals(&payload, literals)

	body := payload.Bytes()
	dictFlag := byte(0)
	if !o.DisableDictionary {
		var comp bytes.Buffer
		if err := pool.DeflateFast(&comp, body); err != nil {
			return nil, fmt.Errorf("sz: dictionary stage: %w", err)
		}
		if comp.Len() < len(body) {
			body = comp.Bytes()
			dictFlag = 1
		}
	}

	var out bytes.Buffer
	writeUint32(&out, magicFor[T]())
	out.WriteByte(dictFlag)
	out.WriteByte(byte(shape.NDims()))
	writeUint64(&out, math.Float64bits(o.ErrorBound))
	writeUint32(&out, uint32(o.BlockSize))
	writeUint32(&out, uint32(o.Intervals))
	for _, d := range shape {
		writeUint32(&out, uint32(d))
	}
	out.Write(body)
	return out.Bytes(), nil
}

// Decompress reconstructs the data from a stream produced by Compress. The
// shape argument must match the shape used at compression time; it is
// validated against the header.
func Decompress[T grid.Float](buf []byte, shape grid.Dims) ([]T, error) {
	hdr, body, err := parseHeader(buf)
	if err != nil {
		return nil, err
	}
	if hdr.elemSize != grid.ElemSize[T]() {
		return nil, fmt.Errorf("%w: stream holds %d-byte elements, caller expects %d-byte", ErrCorrupt, hdr.elemSize, grid.ElemSize[T]())
	}
	if shape != nil && !hdr.shape.Equal(shape) {
		return nil, fmt.Errorf("%w: shape mismatch: stream has %v, caller expects %v", ErrCorrupt, hdr.shape, shape)
	}
	return decompressBody[T](hdr, body)
}

// DecompressHeaderShape extracts the shape stored in a compressed stream.
func DecompressHeaderShape(buf []byte) (grid.Dims, error) {
	hdr, _, err := parseHeader(buf)
	if err != nil {
		return nil, err
	}
	return hdr.shape, nil
}

type header struct {
	dictFlag   byte
	elemSize   int
	errorBound float64
	blockSize  int
	intervals  int
	shape      grid.Dims
}

func parseHeader(buf []byte) (header, []byte, error) {
	var h header
	if len(buf) < 4+1+1+8+4+4 {
		return h, nil, ErrCorrupt
	}
	switch binary.LittleEndian.Uint32(buf[0:4]) {
	case magic32:
		h.elemSize = 4
	case magic64:
		h.elemSize = 8
	default:
		return h, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	h.dictFlag = buf[4]
	ndims := int(buf[5])
	if ndims < 1 || ndims > 4 {
		return h, nil, fmt.Errorf("%w: bad rank %d", ErrCorrupt, ndims)
	}
	h.errorBound = math.Float64frombits(binary.LittleEndian.Uint64(buf[6:14]))
	h.blockSize = int(binary.LittleEndian.Uint32(buf[14:18]))
	h.intervals = int(binary.LittleEndian.Uint32(buf[18:22]))
	pos := 22
	if len(buf) < pos+4*ndims {
		return h, nil, ErrCorrupt
	}
	h.shape = make(grid.Dims, ndims)
	for i := 0; i < ndims; i++ {
		h.shape[i] = int(binary.LittleEndian.Uint32(buf[pos : pos+4]))
		pos += 4
	}
	if err := h.shape.Validate(); err != nil {
		return h, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return h, buf[pos:], nil
}

func decompressBody[T grid.Float](h header, body []byte) ([]T, error) {
	if h.dictFlag == 1 {
		fr := flate.NewReader(bytes.NewReader(body))
		raw, err := io.ReadAll(fr)
		if err != nil {
			return nil, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
		}
		fr.Close()
		body = raw
	}
	rd := bytes.NewReader(body)
	blockMeta, err := readChunk(rd)
	if err != nil {
		return nil, err
	}
	defer pool.PutBytes(blockMeta)
	//frazlint:allow poolcheck -- readChunk gets-and-returns a pooled buffer; its error-path put misreads as releasing rd
	huffBytes, err := readChunk(rd)
	if err != nil {
		return nil, err
	}
	defer pool.PutBytes(huffBytes)
	numLit, err := readUint32(rd)
	if err != nil {
		return nil, err
	}
	literals, err := readLiterals[T](rd, int(numLit))
	if err != nil {
		return nil, err
	}
	defer putFloats(literals)

	codes, err := huffman.Decode(huffBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(codes) != h.shape.Len() {
		return nil, fmt.Errorf("%w: code count %d does not match shape %v", ErrCorrupt, len(codes), h.shape)
	}

	q, err := quantize.NewWithIntervals(h.errorBound, h.intervals)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	// The output comes from the element pool: the blocked open path recycles
	// block buffers after scattering them. Every element is written before a
	// successful return (the blocks tile the domain and each point is
	// assigned), so the pool's stale contents never leak.
	dec := &decoder[T]{
		q:        q,
		codes:    codes,
		literals: literals,
		recon:    getFloats[T](h.shape.Len()),
	}
	strides := h.shape.Strides()
	blocks := h.shape.Blocks(h.blockSize)

	metaPos := 0
	for _, b := range blocks {
		if metaPos >= len(blockMeta) {
			putFloats(dec.recon)
			return nil, fmt.Errorf("%w: truncated block metadata", ErrCorrupt)
		}
		sel := blockMeta[metaPos]
		metaPos++
		if sel == predRegress {
			if metaPos+32 > len(blockMeta) {
				putFloats(dec.recon)
				return nil, fmt.Errorf("%w: truncated regression coefficients", ErrCorrupt)
			}
			var coeffs [4]float64
			for i := 0; i < 4; i++ {
				coeffs[i] = math.Float64frombits(binary.LittleEndian.Uint64(blockMeta[metaPos : metaPos+8]))
				metaPos += 8
			}
			dec.regressBlock(strides, b, coeffs)
		} else if sel == predLorenzo {
			dec.lorenzoBlock(strides, b)
		} else {
			putFloats(dec.recon)
			return nil, fmt.Errorf("%w: unknown predictor selector %d", ErrCorrupt, sel)
		}
		if dec.err != nil {
			putFloats(dec.recon)
			return nil, dec.err
		}
	}
	pool.PutInt32(codes)
	return dec.recon, nil
}

// solve4 solves a 4x4 symmetric positive semi-definite system by Gaussian
// elimination with partial pivoting. Singular directions get a zero
// coefficient.
func solve4(a [4][4]float64, b [4]float64) [4]float64 {
	const n = 4
	// Augment.
	var m [n][n + 1]float64
	for i := 0; i < n; i++ {
		copy(m[i][:n], a[i][:])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// pivot
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		m[col], m[p] = m[p], m[col]
		if math.Abs(m[col][col]) < 1e-12 {
			continue
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	var x [4]float64
	for i := 0; i < n; i++ {
		if math.Abs(m[i][i]) >= 1e-12 {
			x[i] = m[i][n] / m[i][i]
		}
	}
	return x
}

func writeUint32(w *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	w.Write(tmp[:])
}

func writeUint64(w *bytes.Buffer, v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	w.Write(tmp[:])
}

func readUint32(r *bytes.Reader) (uint32, error) {
	var tmp [4]byte
	if _, err := io.ReadFull(r, tmp[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return binary.LittleEndian.Uint32(tmp[:]), nil
}

// writeLiterals appends the unpredictable values' raw IEEE-754 bits: 4 bytes
// per element for float32 streams, 8 for float64.
func writeLiterals[T grid.Float](w *bytes.Buffer, literals []T) {
	if grid.ElemSize[T]() == 4 {
		for _, v := range literals {
			writeUint32(w, math.Float32bits(float32(v)))
		}
		return
	}
	for _, v := range literals {
		writeUint64(w, math.Float64bits(float64(v)))
	}
}

// readLiterals is the inverse of writeLiterals. The returned slice comes
// from the element pool; decompressBody recycles it after the block loop.
// A count the remaining bytes cannot hold is rejected before the slice is
// sized by it.
func readLiterals[T grid.Float](r *bytes.Reader, n int) ([]T, error) {
	if n > r.Len()/grid.ElemSize[T]() {
		return nil, fmt.Errorf("%w: %d literals claimed, %d bytes remain", ErrCorrupt, n, r.Len())
	}
	out := getFloats[T](n)
	if grid.ElemSize[T]() == 4 {
		for i := range out {
			v, err := readUint32(r)
			if err != nil {
				putFloats(out)
				return nil, err
			}
			out[i] = T(math.Float32frombits(v))
		}
		return out, nil
	}
	for i := range out {
		v, err := readUint64(r)
		if err != nil {
			putFloats(out)
			return nil, err
		}
		out[i] = T(math.Float64frombits(v))
	}
	return out, nil
}

func readUint64(r *bytes.Reader) (uint64, error) {
	var tmp [8]byte
	if _, err := io.ReadFull(r, tmp[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return binary.LittleEndian.Uint64(tmp[:]), nil
}

func readChunk(r *bytes.Reader) ([]byte, error) {
	n, err := readUint32(r)
	if err != nil {
		return nil, err
	}
	if int(n) > r.Len() {
		return nil, fmt.Errorf("%w: chunk length %d exceeds remaining %d", ErrCorrupt, n, r.Len())
	}
	// Chunk buffers come from the byte pool; decompressBody recycles them
	// once parsed, so the blocked open path reuses them across blocks.
	buf := pool.GetBytes(int(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		pool.PutBytes(buf)
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return buf, nil
}
