package sz

import (
	"fmt"
	"math"

	"fraz/internal/grid"
	"fraz/internal/pool"
	"fraz/internal/quantize"
)

// This file holds the quantization hot loops, restructured from the original
// per-point closure walk (odometer + stride sum + div/mod coordinate recovery
// for every element) into per-rank row kernels: a row is a contiguous run
// along the fastest axis, so within a row the flat offset advances by 1 and
// every slower-axis Lorenzo guard (y>0, z>0) is a row constant hoisted out of
// the inner loop. Only the first element of a domain-edge row (global x == 0)
// needs special handling, peeled off before the guard-free loop body.
//
// Bit-compatibility contract: every kernel evaluates the exact floating-point
// expressions of a per-point walk that computes the Lorenzo and regression
// predictions from scratch, with identical association order, so streams
// and reconstructions are unchanged (golden_test.go pins them).
// The only deviation is dropping "+ 0.0" terms for absent neighbours, which
// can flip a prediction between -0.0 and +0.0 — invisible to the quantizer:
// v-pred, round(diff/2e), and pred+2e*code are identical for both zero signs.
//
// The same contract covers the regression fit and the predictor selection
// (gram, regressionRHS, regressionBeatsLorenzo), which are per-rank row
// kernels too, against a row-major walk over block-local coordinates that
// adds A^T A, A^T b and both residuals point by point:
//   - The A^T A half of the normal equations depends only on the block's
//     size, so it is accumulated once per distinct size, in the walk's
//     row-major point order, and reused for every block of that size.
//   - A^T b and both residual sums keep their per-point accumulation order;
//     only row constants (c0+c1*l0+c2*l1, float64(l0)) are hoisted. The walk's
//     1*v term is v, and its 0*v terms for unused dimensions leave the sum
//     at +0 for finite data. Non-finite data makes the regression residual
//     Inf or NaN, so regression can never win such a block and its
//     coefficients are never written.
//   - The Lorenzo residual drops absent-neighbour zero terms, as above; |v-pred|
//     is the same for both zero signs.

// encoder carries the per-field compression state threaded through the row
// kernels: the quantizer, the original data, the running reconstruction the
// Lorenzo predictor reads, and the output code/literal streams.
type encoder[T grid.Float] struct {
	q        *quantize.Quantizer
	bound    float64
	data     []T
	recon    []T
	codes    []int32
	literals []T
	grams    []blockGram
}

// point quantizes one value against its prediction — the body of the original
// per-point closure, unchanged.
func (e *encoder[T]) point(off int, pred float64) {
	v := float64(e.data[off])
	code, rec, ok := e.q.Quantize(v, pred)
	if ok {
		// The decompressor stores reconstructions at the element type's
		// precision, so the bound must hold after the cast as well (a no-op
		// for float64 input).
		recT := T(rec)
		if math.Abs(float64(recT)-v) > e.bound {
			ok = false
		} else {
			e.codes = append(e.codes, code)
			e.recon[off] = recT
		}
	}
	if !ok {
		e.codes = append(e.codes, unpredictable)
		e.literals = append(e.literals, e.data[off])
		e.recon[off] = e.data[off]
	}
}

// lorenzoBlock encodes one block with the Lorenzo predictor, dispatching to
// the rank-specialized row kernels.
func (e *encoder[T]) lorenzoBlock(strides []int, b grid.Block) {
	switch len(b.Start) {
	case 1:
		e.lorenzoRow1(b.Start[0], b.Size[0], b.Start[0])
	case 2:
		sy := strides[0]
		for ly := 0; ly < b.Size[0]; ly++ {
			y := b.Start[0] + ly
			e.lorenzoRow2(y*sy+b.Start[1], b.Size[1], y, b.Start[1], sy)
		}
	case 3:
		sz, sy := strides[0], strides[1]
		for lz := 0; lz < b.Size[0]; lz++ {
			z := b.Start[0] + lz
			for ly := 0; ly < b.Size[1]; ly++ {
				y := b.Start[1] + ly
				e.lorenzoRow3(z*sz+y*sy+b.Start[2], b.Size[2], z, y, b.Start[2], sz, sy)
			}
		}
	default:
		// 4-D: previous element along the fastest axis, like the 1-D kernel.
		for l0 := 0; l0 < b.Size[0]; l0++ {
			for l1 := 0; l1 < b.Size[1]; l1++ {
				for l2 := 0; l2 < b.Size[2]; l2++ {
					base := (b.Start[0]+l0)*strides[0] + (b.Start[1]+l1)*strides[1] +
						(b.Start[2]+l2)*strides[2] + b.Start[3]
					e.lorenzoRow1(base, b.Size[3], b.Start[3])
				}
			}
		}
	}
}

func (e *encoder[T]) lorenzoRow1(base, n, x0 int) {
	off := base
	if x0 == 0 {
		e.point(off, 0)
		off++
		n--
	}
	r := e.recon
	for i := 0; i < n; i++ {
		e.point(off, float64(r[off-1]))
		off++
	}
}

func (e *encoder[T]) lorenzoRow2(base, n, y, x0, sy int) {
	off := base
	r := e.recon
	if x0 == 0 {
		var pred float64
		if y > 0 {
			pred = float64(r[off-sy])
		}
		e.point(off, pred)
		off++
		n--
	}
	if y > 0 {
		for i := 0; i < n; i++ {
			pred := float64(r[off-1]) + float64(r[off-sy]) - float64(r[off-sy-1])
			e.point(off, pred)
			off++
		}
	} else {
		for i := 0; i < n; i++ {
			e.point(off, float64(r[off-1]))
			off++
		}
	}
}

func (e *encoder[T]) lorenzoRow3(base, n, z, y, x0, sz, sy int) {
	off := base
	r := e.recon
	if x0 == 0 {
		var pred float64
		switch {
		case z > 0 && y > 0:
			pred = float64(r[off-sy]) + float64(r[off-sz]) - float64(r[off-sy-sz])
		case z > 0:
			pred = float64(r[off-sz])
		case y > 0:
			pred = float64(r[off-sy])
		}
		e.point(off, pred)
		off++
		n--
	}
	switch {
	case z > 0 && y > 0:
		for i := 0; i < n; i++ {
			fx := float64(r[off-1])
			fy := float64(r[off-sy])
			fz := float64(r[off-sz])
			fxy := float64(r[off-1-sy])
			fxz := float64(r[off-1-sz])
			fyz := float64(r[off-sy-sz])
			fxyz := float64(r[off-1-sy-sz])
			e.point(off, fx+fy+fz-fxy-fxz-fyz+fxyz)
			off++
		}
	case z > 0:
		for i := 0; i < n; i++ {
			pred := float64(r[off-1]) + float64(r[off-sz]) - float64(r[off-1-sz])
			e.point(off, pred)
			off++
		}
	case y > 0:
		for i := 0; i < n; i++ {
			pred := float64(r[off-1]) + float64(r[off-sy]) - float64(r[off-1-sy])
			e.point(off, pred)
			off++
		}
	default:
		for i := 0; i < n; i++ {
			e.point(off, float64(r[off-1]))
			off++
		}
	}
}

// regressBlock encodes one block with the regression predictor. Along a row
// only the fastest-axis coordinate varies, so the row-constant part of the
// prediction is accumulated once, in predictRegression's association order.
func (e *encoder[T]) regressBlock(strides []int, b grid.Block, coeffs [4]float64) {
	switch len(b.Start) {
	case 1:
		base := b.Start[0]
		for i := 0; i < b.Size[0]; i++ {
			e.point(base+i, coeffs[0]+coeffs[1]*float64(i))
		}
	case 2:
		for ly := 0; ly < b.Size[0]; ly++ {
			base := (b.Start[0]+ly)*strides[0] + b.Start[1]
			p0 := coeffs[0] + coeffs[1]*float64(ly)
			for i := 0; i < b.Size[1]; i++ {
				e.point(base+i, p0+coeffs[2]*float64(i))
			}
		}
	case 3:
		for lz := 0; lz < b.Size[0]; lz++ {
			pz := coeffs[0] + coeffs[1]*float64(lz)
			for ly := 0; ly < b.Size[1]; ly++ {
				base := (b.Start[0]+lz)*strides[0] + (b.Start[1]+ly)*strides[1] + b.Start[2]
				p0 := pz + coeffs[2]*float64(ly)
				for i := 0; i < b.Size[2]; i++ {
					e.point(base+i, p0+coeffs[3]*float64(i))
				}
			}
		}
	default:
		// 4-D: the model uses only the three slowest coordinates, so the
		// prediction is constant along a row.
		for l0 := 0; l0 < b.Size[0]; l0++ {
			p0 := coeffs[0] + coeffs[1]*float64(l0)
			for l1 := 0; l1 < b.Size[1]; l1++ {
				p1 := p0 + coeffs[2]*float64(l1)
				for l2 := 0; l2 < b.Size[2]; l2++ {
					p2 := p1 + coeffs[3]*float64(l2)
					base := (b.Start[0]+l0)*strides[0] + (b.Start[1]+l1)*strides[1] +
						(b.Start[2]+l2)*strides[2] + b.Start[3]
					for i := 0; i < b.Size[3]; i++ {
						e.point(base+i, p2)
					}
				}
			}
		}
	}
}

// blockGram is the A^T A matrix of the regression fit for one block size.
type blockGram struct {
	size [4]int
	ata  [4][4]float64
}

// gram returns A^T A for a block of the given size, where the design matrix
// rows are (1, l0, l1, l2) over the block-local coordinates (the fourth
// coordinate of a 4-D block is not a regressor). Entries are memoized per
// size: a field has at most 2^rank distinct block sizes.
func (e *encoder[T]) gram(size grid.Dims) [4][4]float64 {
	var key [4]int
	copy(key[:], size)
	for i := range e.grams {
		if e.grams[i].size == key {
			return e.grams[i].ata
		}
	}
	var ata [4][4]float64
	var local [4]int
	n := size.Len()
	for p := 0; p < n; p++ {
		row := [4]float64{1}
		for k := 0; k < len(size) && k < 3; k++ {
			row[k+1] = float64(local[k])
		}
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				ata[r][c] += row[r] * row[c]
			}
		}
		for k := len(size) - 1; k >= 0; k-- {
			local[k]++
			if local[k] < size[k] {
				break
			}
			local[k] = 0
		}
	}
	e.grams = append(e.grams, blockGram{size: key, ata: ata})
	return ata
}

// regressionRHS returns A^T b of the regression fit: the block's original
// values summed with weights 1, l0, l1, l2, in row-major point order.
func (e *encoder[T]) regressionRHS(strides []int, b grid.Block) [4]float64 {
	d := e.data
	var a0, a1, a2, a3 float64
	switch len(b.Start) {
	case 1:
		base := b.Start[0]
		for i := 0; i < b.Size[0]; i++ {
			v := float64(d[base+i])
			a0 += v
			a1 += float64(i) * v
		}
	case 2:
		for ly := 0; ly < b.Size[0]; ly++ {
			base := (b.Start[0]+ly)*strides[0] + b.Start[1]
			fy := float64(ly)
			for i := 0; i < b.Size[1]; i++ {
				v := float64(d[base+i])
				a0 += v
				a1 += fy * v
				a2 += float64(i) * v
			}
		}
	case 3:
		for lz := 0; lz < b.Size[0]; lz++ {
			fz := float64(lz)
			for ly := 0; ly < b.Size[1]; ly++ {
				base := (b.Start[0]+lz)*strides[0] + (b.Start[1]+ly)*strides[1] + b.Start[2]
				fy := float64(ly)
				for i := 0; i < b.Size[2]; i++ {
					v := float64(d[base+i])
					a0 += v
					a1 += fz * v
					a2 += fy * v
					a3 += float64(i) * v
				}
			}
		}
	default:
		for l0 := 0; l0 < b.Size[0]; l0++ {
			f0 := float64(l0)
			for l1 := 0; l1 < b.Size[1]; l1++ {
				f1 := float64(l1)
				for l2 := 0; l2 < b.Size[2]; l2++ {
					f2 := float64(l2)
					base := (b.Start[0]+l0)*strides[0] + (b.Start[1]+l1)*strides[1] +
						(b.Start[2]+l2)*strides[2] + b.Start[3]
					for i := 0; i < b.Size[3]; i++ {
						v := float64(d[base+i])
						a0 += v
						a1 += f0 * v
						a2 += f1 * v
						a3 += f2 * v
					}
				}
			}
		}
	}
	return [4]float64{a0, a1, a2, a3}
}

// regressionBeatsLorenzo reports whether the regression model predicts the
// block's original (not reconstructed) data with a lower total absolute
// residual than the Lorenzo predictor does on the same data, mirroring SZ
// 2.x's sampling-based predictor selection. For 4-D blocks the Lorenzo
// estimate is the 3-D stencil over the three slowest axes.
func (e *encoder[T]) regressionBeatsLorenzo(strides []int, b grid.Block, c [4]float64) bool {
	d := e.data
	var errR, errL float64
	switch len(b.Start) {
	case 1:
		off := b.Start[0]
		for i := 0; i < b.Size[0]; i++ {
			v := float64(d[off])
			errR += math.Abs(v - (c[0] + c[1]*float64(i)))
			var pred float64
			if off > 0 {
				pred = float64(d[off-1])
			}
			errL += math.Abs(v - pred)
			off++
		}
	case 2:
		sy := strides[0]
		for ly := 0; ly < b.Size[0]; ly++ {
			y := b.Start[0] + ly
			off := y*sy + b.Start[1]
			p0 := c[0] + c[1]*float64(ly)
			i, n := 0, b.Size[1]
			if b.Start[1] == 0 {
				v := float64(d[off])
				errR += math.Abs(v - (p0 + c[2]*float64(i)))
				var pred float64
				if y > 0 {
					pred = float64(d[off-sy])
				}
				errL += math.Abs(v - pred)
				i++
				off++
			}
			for ; i < n; i++ {
				v := float64(d[off])
				errR += math.Abs(v - (p0 + c[2]*float64(i)))
				pred := float64(d[off-1])
				if y > 0 {
					pred = float64(d[off-1]) + float64(d[off-sy]) - float64(d[off-sy-1])
				}
				errL += math.Abs(v - pred)
				off++
			}
		}
	case 3:
		sz, sy := strides[0], strides[1]
		for lz := 0; lz < b.Size[0]; lz++ {
			z := b.Start[0] + lz
			pz := c[0] + c[1]*float64(lz)
			for ly := 0; ly < b.Size[1]; ly++ {
				y := b.Start[1] + ly
				off := z*sz + y*sy + b.Start[2]
				p0 := pz + c[2]*float64(ly)
				i, n := 0, b.Size[2]
				if b.Start[2] == 0 {
					v := float64(d[off])
					errR += math.Abs(v - (p0 + c[3]*float64(i)))
					errL += math.Abs(v - lorenzoEstimate(d, off, 1, sy, sz, false, y > 0, z > 0))
					i++
					off++
				}
				switch {
				case z > 0 && y > 0:
					for ; i < n; i++ {
						v := float64(d[off])
						errR += math.Abs(v - (p0 + c[3]*float64(i)))
						fx := float64(d[off-1])
						fy := float64(d[off-sy])
						fz := float64(d[off-sz])
						fxy := float64(d[off-1-sy])
						fxz := float64(d[off-1-sz])
						fyz := float64(d[off-sy-sz])
						fxyz := float64(d[off-1-sy-sz])
						errL += math.Abs(v - (fx + fy + fz - fxy - fxz - fyz + fxyz))
						off++
					}
				case z > 0:
					for ; i < n; i++ {
						v := float64(d[off])
						errR += math.Abs(v - (p0 + c[3]*float64(i)))
						errL += math.Abs(v - (float64(d[off-1]) + float64(d[off-sz]) - float64(d[off-1-sz])))
						off++
					}
				case y > 0:
					for ; i < n; i++ {
						v := float64(d[off])
						errR += math.Abs(v - (p0 + c[3]*float64(i)))
						errL += math.Abs(v - (float64(d[off-1]) + float64(d[off-sy]) - float64(d[off-1-sy])))
						off++
					}
				default:
					for ; i < n; i++ {
						v := float64(d[off])
						errR += math.Abs(v - (p0 + c[3]*float64(i)))
						errL += math.Abs(v - float64(d[off-1]))
						off++
					}
				}
			}
		}
	default:
		// 4-D: the regression prediction and every Lorenzo guard are
		// constant along a row.
		s0, s1, s2 := strides[0], strides[1], strides[2]
		for l0 := 0; l0 < b.Size[0]; l0++ {
			z := b.Start[0] + l0
			p0 := c[0] + c[1]*float64(l0)
			for l1 := 0; l1 < b.Size[1]; l1++ {
				y := b.Start[1] + l1
				p1 := p0 + c[2]*float64(l1)
				for l2 := 0; l2 < b.Size[2]; l2++ {
					x := b.Start[2] + l2
					p2 := p1 + c[3]*float64(l2)
					off := z*s0 + y*s1 + x*s2 + b.Start[3]
					for i := 0; i < b.Size[3]; i++ {
						v := float64(d[off])
						errR += math.Abs(v - p2)
						errL += math.Abs(v - lorenzoEstimate(d, off, s2, s1, s0, x > 0, y > 0, z > 0))
						off++
					}
				}
			}
		}
	}
	return errR < errL
}

// lorenzoEstimate is the selection's 3-D Lorenzo stencil on original data at
// off, with neighbour strides sx, sy, sz and absent neighbours (a false
// guard) read as zero, in the term order fx+fy+fz-fxy-fxz-fyz+fxyz.
func lorenzoEstimate[T grid.Float](d []T, off, sx, sy, sz int, gx, gy, gz bool) float64 {
	var fx, fy, fz, fxy, fxz, fyz, fxyz float64
	if gx {
		fx = float64(d[off-sx])
	}
	if gy {
		fy = float64(d[off-sy])
	}
	if gz {
		fz = float64(d[off-sz])
	}
	if gx && gy {
		fxy = float64(d[off-sx-sy])
	}
	if gx && gz {
		fxz = float64(d[off-sx-sz])
	}
	if gy && gz {
		fyz = float64(d[off-sy-sz])
	}
	if gx && gy && gz {
		fxyz = float64(d[off-sx-sy-sz])
	}
	return fx + fy + fz - fxy - fxz - fyz + fxyz
}

// decoder mirrors encoder for decompression: it consumes the code and literal
// streams in visit order and writes reconstructions.
type decoder[T grid.Float] struct {
	q        *quantize.Quantizer
	codes    []int32
	literals []T
	recon    []T
	codePos  int
	litPos   int
	err      error
}

func (d *decoder[T]) point(off int, pred float64) {
	if d.err != nil {
		return
	}
	code := d.codes[d.codePos]
	d.codePos++
	if code == unpredictable {
		if d.litPos >= len(d.literals) {
			d.err = fmt.Errorf("%w: literal stream exhausted", ErrCorrupt)
			return
		}
		d.recon[off] = d.literals[d.litPos]
		d.litPos++
		return
	}
	d.recon[off] = T(d.q.Dequantize(pred, code))
}

func (d *decoder[T]) lorenzoBlock(strides []int, b grid.Block) {
	switch len(b.Start) {
	case 1:
		d.lorenzoRow1(b.Start[0], b.Size[0], b.Start[0])
	case 2:
		sy := strides[0]
		for ly := 0; ly < b.Size[0]; ly++ {
			y := b.Start[0] + ly
			d.lorenzoRow2(y*sy+b.Start[1], b.Size[1], y, b.Start[1], sy)
		}
	case 3:
		sz, sy := strides[0], strides[1]
		for lz := 0; lz < b.Size[0]; lz++ {
			z := b.Start[0] + lz
			for ly := 0; ly < b.Size[1]; ly++ {
				y := b.Start[1] + ly
				d.lorenzoRow3(z*sz+y*sy+b.Start[2], b.Size[2], z, y, b.Start[2], sz, sy)
			}
		}
	default:
		for l0 := 0; l0 < b.Size[0]; l0++ {
			for l1 := 0; l1 < b.Size[1]; l1++ {
				for l2 := 0; l2 < b.Size[2]; l2++ {
					base := (b.Start[0]+l0)*strides[0] + (b.Start[1]+l1)*strides[1] +
						(b.Start[2]+l2)*strides[2] + b.Start[3]
					d.lorenzoRow1(base, b.Size[3], b.Start[3])
				}
			}
		}
	}
}

func (d *decoder[T]) lorenzoRow1(base, n, x0 int) {
	off := base
	if x0 == 0 {
		d.point(off, 0)
		off++
		n--
	}
	r := d.recon
	for i := 0; i < n; i++ {
		d.point(off, float64(r[off-1]))
		off++
	}
}

func (d *decoder[T]) lorenzoRow2(base, n, y, x0, sy int) {
	off := base
	r := d.recon
	if x0 == 0 {
		var pred float64
		if y > 0 {
			pred = float64(r[off-sy])
		}
		d.point(off, pred)
		off++
		n--
	}
	if y > 0 {
		for i := 0; i < n; i++ {
			pred := float64(r[off-1]) + float64(r[off-sy]) - float64(r[off-sy-1])
			d.point(off, pred)
			off++
		}
	} else {
		for i := 0; i < n; i++ {
			d.point(off, float64(r[off-1]))
			off++
		}
	}
}

func (d *decoder[T]) lorenzoRow3(base, n, z, y, x0, sz, sy int) {
	off := base
	r := d.recon
	if x0 == 0 {
		var pred float64
		switch {
		case z > 0 && y > 0:
			pred = float64(r[off-sy]) + float64(r[off-sz]) - float64(r[off-sy-sz])
		case z > 0:
			pred = float64(r[off-sz])
		case y > 0:
			pred = float64(r[off-sy])
		}
		d.point(off, pred)
		off++
		n--
	}
	switch {
	case z > 0 && y > 0:
		for i := 0; i < n; i++ {
			fx := float64(r[off-1])
			fy := float64(r[off-sy])
			fz := float64(r[off-sz])
			fxy := float64(r[off-1-sy])
			fxz := float64(r[off-1-sz])
			fyz := float64(r[off-sy-sz])
			fxyz := float64(r[off-1-sy-sz])
			d.point(off, fx+fy+fz-fxy-fxz-fyz+fxyz)
			off++
		}
	case z > 0:
		for i := 0; i < n; i++ {
			pred := float64(r[off-1]) + float64(r[off-sz]) - float64(r[off-1-sz])
			d.point(off, pred)
			off++
		}
	case y > 0:
		for i := 0; i < n; i++ {
			pred := float64(r[off-1]) + float64(r[off-sy]) - float64(r[off-1-sy])
			d.point(off, pred)
			off++
		}
	default:
		for i := 0; i < n; i++ {
			d.point(off, float64(r[off-1]))
			off++
		}
	}
}

func (d *decoder[T]) regressBlock(strides []int, b grid.Block, coeffs [4]float64) {
	switch len(b.Start) {
	case 1:
		base := b.Start[0]
		for i := 0; i < b.Size[0]; i++ {
			d.point(base+i, coeffs[0]+coeffs[1]*float64(i))
		}
	case 2:
		for ly := 0; ly < b.Size[0]; ly++ {
			base := (b.Start[0]+ly)*strides[0] + b.Start[1]
			p0 := coeffs[0] + coeffs[1]*float64(ly)
			for i := 0; i < b.Size[1]; i++ {
				d.point(base+i, p0+coeffs[2]*float64(i))
			}
		}
	case 3:
		for lz := 0; lz < b.Size[0]; lz++ {
			pz := coeffs[0] + coeffs[1]*float64(lz)
			for ly := 0; ly < b.Size[1]; ly++ {
				base := (b.Start[0]+lz)*strides[0] + (b.Start[1]+ly)*strides[1] + b.Start[2]
				p0 := pz + coeffs[2]*float64(ly)
				for i := 0; i < b.Size[2]; i++ {
					d.point(base+i, p0+coeffs[3]*float64(i))
				}
			}
		}
	default:
		for l0 := 0; l0 < b.Size[0]; l0++ {
			p0 := coeffs[0] + coeffs[1]*float64(l0)
			for l1 := 0; l1 < b.Size[1]; l1++ {
				p1 := p0 + coeffs[2]*float64(l1)
				for l2 := 0; l2 < b.Size[2]; l2++ {
					p2 := p1 + coeffs[3]*float64(l2)
					base := (b.Start[0]+l0)*strides[0] + (b.Start[1]+l1)*strides[1] +
						(b.Start[2]+l2)*strides[2] + b.Start[3]
					for i := 0; i < b.Size[3]; i++ {
						d.point(base+i, p2)
					}
				}
			}
		}
	}
}

// getFloats and putFloats bridge the generic element type to the pool's
// concrete free lists.
func getFloats[T grid.Float](n int) []T {
	if grid.ElemSize[T]() == 4 {
		return any(pool.GetFloat32(n)).([]T)
	}
	return any(pool.GetFloat64(n)).([]T)
}

func putFloats[T grid.Float](s []T) {
	switch v := any(s).(type) {
	case []float32:
		pool.PutFloat32(v)
	case []float64:
		pool.PutFloat64(v)
	}
}
