package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"fraz"
	"fraz/internal/grid"
	"fraz/internal/metrics"
	"fraz/internal/pressio"
)

// sealSample is one public seal call.
type sealSample struct {
	dur   time.Duration
	bytes int    // raw bytes offered to the call
	alloc uint64 // MemStats.TotalAlloc growth during the call
	ratio float64
	met   bool // the whole-field ratio lies in the target band
}

// samples collects a run's timed calls.
type samples struct {
	seals []sealSample
	psnrs []float64 // one per verified open
	// sealTime and openTime hold the wall time of every seal-side call
	// (field seals, Dataset.Close) and open-side call (field opens,
	// OpenDataset).
	sealTime, openTime timeByKey
	// pubSeal and tracedSeal sum the public and traced seal times of a
	// traced run.
	pubSeal, tracedSeal time.Duration
}

// timeByKey groups call times by op key, the input and its time step, so
// that the calls of one key do the same work.
type timeByKey struct {
	durs  map[string][]time.Duration
	bytes map[string]int
}

func (t *timeByKey) add(key string, d time.Duration, n int) {
	if t.durs == nil {
		t.durs, t.bytes = map[string][]time.Duration{}, map[string]int{}
	}
	t.durs[key] = append(t.durs[key], d)
	t.bytes[key] = n
}

// typical returns the raw bytes of one call per key and the sum over keys
// of the median call time: the cost of one typical pass over every input,
// which one slow call (a GC cycle, a neighbour's burst) cannot move.
func (t *timeByKey) typical() (bytes float64, d time.Duration) {
	for key, durs := range t.durs {
		bytes += float64(t.bytes[key])
		xs := make([]float64, len(durs))
		for i, x := range durs {
			xs[i] = float64(x)
		}
		d += time.Duration(median(xs))
	}
	return bytes, d
}

// opRunner runs a workload's calls: it times the public call, counts
// failures, verifies outputs outside the timed window and, in a traced run,
// replays each call through the traced layers and checks that both produced
// the same bytes.
type opRunner struct {
	rec  *samples // nil during warm-up
	tr   *tracer  // non-nil in a traced run
	hook func([]byte) []byte

	attempted, failed int
	firstFailure      string
}

// failOp counts one attempted op that failed before it could run, such as
// a client that could not be built.
func (o *opRunner) failOp(format string, args ...any) {
	o.attempted++
	o.fail(format, args...)
}

// fail counts one failed op.
func (o *opRunner) fail(format string, args ...any) {
	o.failed++
	if o.firstFailure == "" {
		o.firstFailure = fmt.Sprintf(format, args...)
	}
}

// corrupt hands sealed bytes to the test hook, if any, before they are
// opened.
func (o *opRunner) corrupt(b []byte) []byte {
	if o.hook == nil {
		return b
	}
	return o.hook(append([]byte(nil), b...))
}

// guard runs fn, turning a panic into an error so one bad op cannot end the
// run.
func guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// timed runs fn under guard and returns its wall time.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := guard(fn)
	return time.Since(start), err
}

// replay runs a traced replay of one public call under a root span and
// returns its wall time.
func (o *opRunner) replay(name string, fn func() error) (time.Duration, error) {
	root := o.tr.begin(name)
	d, err := timed(fn)
	o.tr.end(root, 0, 0)
	return d, err
}

// seal runs one public seal call at the requested target ratio. pub
// returns the call's result and the container bytes it wrote (nil when they
// went into an archive); rep is the traced replay, run only in a traced
// run, whose bytes must match pub's. ok reports whether there is a
// container to open: a clean ErrInfeasible is not a failure, but leaves
// nothing to open.
func (o *opRunner) seal(in *input, target float64,
	pub func() (*fraz.CompressResult, []byte, error),
	rep func() ([]byte, error)) (res *fraz.CompressResult, ok bool) {
	o.attempted++
	var before, after runtime.MemStats
	if o.rec != nil && o.tr == nil {
		runtime.ReadMemStats(&before)
	}
	var out []byte
	dur, err := timed(func() error {
		var err error
		res, out, err = pub()
		return err
	})
	if o.rec != nil && o.tr == nil {
		runtime.ReadMemStats(&after)
	}
	if err != nil && !errors.Is(err, fraz.ErrInfeasible) {
		o.fail("seal %s@%d: %v", in.name, in.step, err)
		return nil, false
	}
	if o.tr != nil {
		repDur, repErr := o.replay("fraz.seal", func() error {
			got, err := rep()
			if err == nil && !bytes.Equal(got, out) {
				return fmt.Errorf("traced seal wrote %d bytes that differ from the public seal's %d", len(got), len(out))
			}
			return err
		})
		if !sameOutcome(err, repErr) {
			o.fail("traced seal %s@%d: public %v, traced %v", in.name, in.step, err, repErr)
			return nil, false
		}
		if o.rec != nil {
			o.rec.pubSeal += dur
			o.rec.tracedSeal += repDur
		}
	}
	s := sealSample{dur: dur, bytes: in.bytes(), alloc: after.TotalAlloc - before.TotalAlloc}
	if err == nil {
		if vErr := checkSealResult(res, out); vErr != nil {
			o.fail("seal %s@%d: %v", in.name, in.step, vErr)
			return nil, false
		}
		s.ratio = res.Ratio
		s.met = res.Ratio >= target*(1-fraz.DefaultTolerance) && res.Ratio <= target*(1+fraz.DefaultTolerance)
	}
	if o.rec != nil {
		o.rec.seals = append(o.rec.seals, s)
		o.rec.sealTime.add(fmt.Sprintf("%s@%d", in.name, in.step), dur, in.bytes())
	}
	return res, err == nil
}

// sameOutcome reports whether the traced replay ended like the public call:
// both succeeded, or both found the target infeasible.
func sameOutcome(pub, rep error) bool {
	if pub == nil || rep == nil {
		return pub == nil && rep == nil
	}
	return errors.Is(pub, fraz.ErrInfeasible) && errors.Is(rep, fraz.ErrInfeasible)
}

// checkSealResult checks what a seal reports against what it wrote.
func checkSealResult(res *fraz.CompressResult, out []byte) error {
	if res == nil {
		return errors.New("nil result")
	}
	if out != nil && res.BytesWritten != int64(len(out)) {
		return fmt.Errorf("result reports %d bytes written, writer holds %d", res.BytesWritten, len(out))
	}
	if !(res.Ratio > 0) {
		return fmt.Errorf("result reports ratio %v", res.Ratio)
	}
	return nil
}

// open runs one public open call, verifies the reconstruction against the
// input outside the timed window and, in a traced run, checks the traced
// replay reconstructs the same bits.
func (o *opRunner) open(in *input, sealed *fraz.CompressResult,
	pub func() (*fraz.DecompressResult, error),
	rep func() (pressio.Buffer, error)) {
	o.attempted++
	var res *fraz.DecompressResult
	dur, err := timed(func() error {
		var err error
		res, err = pub()
		return err
	})
	if err != nil {
		o.fail("open %s@%d: %v", in.name, in.step, err)
		return
	}
	if o.tr != nil {
		_, repErr := o.replay("fraz.open", func() error {
			buf, err := rep()
			if err != nil {
				return err
			}
			if !bytes.Equal(buf.RawBytes(), rawBytes(res.Data)) {
				return errors.New("traced open reconstructed different values than the public open")
			}
			return nil
		})
		if repErr != nil {
			o.fail("traced open %s@%d: %v", in.name, in.step, repErr)
			return
		}
	}
	psnr, err := o.verify(in, sealed, res)
	if err != nil {
		o.fail("open %s@%d: %v", in.name, in.step, err)
		return
	}
	if o.rec != nil {
		o.rec.psnrs = append(o.rec.psnrs, psnr)
		o.rec.openTime.add(fmt.Sprintf("%s@%d", in.name, in.step), dur, in.bytes())
	}
}

// callKind says which total an archive-level call's time joins.
type callKind int

const (
	sealCall callKind = iota
	openCall
)

// call runs one archive-level public call (Dataset.Close, OpenDataset) and,
// in a traced run, its replay, whose bytes must match.
func (o *opRunner) call(kind callKind, name string, pub, rep func() ([]byte, error)) bool {
	o.attempted++
	var out []byte
	dur, err := timed(func() error {
		var err error
		out, err = pub()
		return err
	})
	if err != nil {
		o.fail("%s: %v", name, err)
		return false
	}
	if o.tr != nil {
		_, repErr := o.replay(name, func() error {
			got, err := rep()
			if err == nil && !bytes.Equal(got, out) {
				return fmt.Errorf("traced call wrote %d bytes that differ from the public call's %d", len(got), len(out))
			}
			return err
		})
		if repErr != nil {
			o.fail("traced %s: %v", name, repErr)
			return false
		}
	}
	if o.rec != nil {
		if kind == sealCall {
			o.rec.sealTime.add(name, dur, 0)
		} else {
			o.rec.openTime.add(name, dur, 0)
		}
	}
	return true
}

// verify checks one reconstruction against its input and returns its PSNR:
// shape, dtype and length match; the header ratio equals raw bytes over
// payload bytes and what the seal reported; the error stays within the
// recorded bound under the codec's own semantics.
func (o *opRunner) verify(in *input, sealed *fraz.CompressResult, res *fraz.DecompressResult) (float64, error) {
	if res.DType != "float32" || res.Data == nil {
		return 0, fmt.Errorf("dtype %s, want float32", res.DType)
	}
	if len(res.Data) != len(in.data) {
		return 0, fmt.Errorf("%d values, want %d", len(res.Data), len(in.data))
	}
	if fmt.Sprint(res.Shape) != fmt.Sprint(in.shape) {
		return 0, fmt.Errorf("shape %v, want %v", res.Shape, in.shape)
	}
	if want := metrics.CompressionRatio(in.bytes(), res.CompressedBytes); res.Ratio != want {
		return 0, fmt.Errorf("header ratio %v, raw/payload bytes give %v", res.Ratio, want)
	}
	if res.Ratio != sealed.Ratio || res.Codec != sealed.Codec || res.ErrorBound != sealed.ErrorBound {
		return 0, fmt.Errorf("header (%s, bound %v, ratio %v) differs from the seal's result (%s, bound %v, ratio %v)",
			res.Codec, res.ErrorBound, res.Ratio, sealed.Codec, sealed.ErrorBound, sealed.Ratio)
	}
	if err := checkBound(res.Codec, res.ErrorBound, in.data, res.Data); err != nil {
		return 0, err
	}
	var psnr float64
	o.traceLeaf("metrics.psnr", in.bytes(), func() { psnr = metrics.PSNR(in.data, res.Data) })
	if math.IsNaN(psnr) {
		return 0, errors.New("PSNR is NaN")
	}
	return psnr, nil
}

// traceLeaf runs fn, under a root span of its own in a traced run.
func (o *opRunner) traceLeaf(name string, n int, fn func()) {
	if o.tr == nil {
		fn()
		return
	}
	id := o.tr.begin(name)
	fn()
	o.tr.end(id, n, 0)
}

// checkBound checks the reconstruction error against the bound the header
// records, under that codec's semantics. A pointwise bound is checked to
// the float32 resolution of the field: the error may exceed the bound by at
// most 2^-23 times the field's largest magnitude. The tuner searches bounds
// down to 1e-9 of the value range, below what float32 data resolves, and
// there a codec cannot do better: zfp:accuracy sealed a CLOUDf step (values
// up to about 1e-3) at 1e-12 and reconstructed it to within 1.4e-12.
// Codecs whose parameter is not an error bound (frsz:rate, zfp:rate,
// zfp:precision) are only checked for finite values.
func checkBound(codec string, bound float64, orig, rec []float32) error {
	var limit float64
	switch codec {
	case "sz:abs", "szx:abs", "zfp:accuracy", "mgard:abs":
		limit = bound
	case "sz:rel":
		limit = bound * grid.ValueRange(orig)
	case "flate:lossless":
		limit = 0
	case "mgard:l2":
		rmse := metrics.RMSE(orig, rec)
		if mse := rmse * rmse; !(mse <= bound) {
			return fmt.Errorf("%s mean squared error %v exceeds the recorded bound %v", codec, mse, bound)
		}
		return nil
	default:
		if maxErr := metrics.MaxAbsError(orig, rec); math.IsNaN(maxErr) || math.IsInf(maxErr, 0) {
			return fmt.Errorf("%s max abs error %v", codec, maxErr)
		}
		return nil
	}
	var maxAbs float64
	for _, o := range orig {
		maxAbs = math.Max(maxAbs, math.Abs(float64(o)))
	}
	slack := 0x1p-23 * maxAbs
	for i, o := range orig {
		if d := math.Abs(float64(o) - float64(rec[i])); !(d <= limit+slack) {
			return fmt.Errorf("%s error %v at element %d exceeds the recorded bound %v", codec, d, i, limit)
		}
	}
	return nil
}
