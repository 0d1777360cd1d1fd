package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"unsafe"

	"fraz"
	"fraz/internal/archive"
	"fraz/internal/blocks"
	"fraz/internal/container"
	"fraz/internal/core"
	"fraz/internal/grid"
	"fraz/internal/parallel"
	"fraz/internal/pressio"
)

// The traced run records its spans from the benchmark's own code, around
// each call into a layer: the public path is replayed from its internal
// parts (core.Tuner, pressio.SealBlocked, container, archive), with every
// codec wrapped in a timing decorator. The replay must write the same
// bytes as the public call it mirrors, or its layer numbers would describe a
// different program; opRunner checks that on every op.
//
// pressio.OpenBlocked resolves its codecs from the registry, where no
// decorator can reach them, so the traced open replays it from its exported
// parts (blocks.Plan, Container.BlockPayload, parallel.ForEach) and is
// checked to reconstruct the same bits as the public open.

// replayClient mirrors fraz.Client for the configurations the workloads use
// (one codec or CodecAuto, a ratio target, bound reuse on, default blocks),
// calling the layers itself so each call gets a span.
type replayClient struct {
	tr      *tracer
	codec   string
	ratio   float64
	workers int
	cache   *pressio.Cache // shared by every codec of a CodecAuto client
	subs    map[string]*replaySub
}

// replaySub is one codec's compressor and tuner, with the bound carried
// from one seal to the next.
type replaySub struct {
	comp      pressio.Compressor
	tuner     *core.Tuner
	lastBound float64
}

func newReplayClient(tr *tracer, codec string, ratio float64, workers int) *replayClient {
	c := &replayClient{tr: tr, codec: codec, ratio: ratio, workers: workers, subs: map[string]*replaySub{}}
	if codec == fraz.CodecAuto {
		c.cache = pressio.NewCacheSized(0)
		tr.caches = append(tr.caches, c.cache)
	}
	return c
}

func (c *replayClient) sub(name string) (*replaySub, error) {
	if s, ok := c.subs[name]; ok {
		return s, nil
	}
	comp, err := timedCompressor(c.tr, name)
	if err != nil {
		return nil, err
	}
	cache := c.cache
	if cache == nil {
		cache = pressio.NewCache()
		c.tr.caches = append(c.tr.caches, cache)
	}
	tuner, err := core.NewTuner(comp, core.Config{
		Objective: core.FixedRatio(c.ratio),
		Workers:   c.workers,
		Cache:     cache,
	})
	if err != nil {
		return nil, err
	}
	s := &replaySub{comp: comp, tuner: tuner}
	c.subs[name] = s
	return s, nil
}

// plan resolves the worker count and block plan the public path uses, and
// the middle block that tuning samples.
func (c *replayClient) plan(buf pressio.Buffer) ([]blocks.Block, pressio.Buffer, int, error) {
	workers := c.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	plan, err := blocks.Plan(buf.Shape, blocks.DefaultCount(buf.Shape, workers))
	if err != nil {
		return nil, pressio.Buffer{}, 0, err
	}
	sample := buf
	if len(plan) > 1 {
		if sample, err = buf.Slice(plan[len(plan)/2]); err != nil {
			return nil, pressio.Buffer{}, 0, err
		}
	}
	return plan, sample, workers, nil
}

// seal mirrors Client.Compress.
func (c *replayClient) seal(ctx context.Context, w io.Writer, in *input) error {
	dims, err := grid.NewDims(in.shape...)
	if err != nil {
		return err
	}
	buf, err := pressio.NewBufferOf(in.data, dims)
	if err != nil {
		return err
	}
	if c.codec == fraz.CodecAuto {
		return c.sealAuto(ctx, w, buf)
	}
	sub, err := c.sub(c.codec)
	if err != nil {
		return err
	}
	return c.sealTuned(ctx, w, sub, buf)
}

// sealTuned mirrors core.Tuner.SealBlocked for a ratio target followed by
// the container write.
func (c *replayClient) sealTuned(ctx context.Context, w io.Writer, sub *replaySub, buf pressio.Buffer) error {
	plan, sample, workers, err := c.plan(buf)
	if err != nil {
		return err
	}
	res, err := c.tune(ctx, sub, sample, false)
	if err != nil {
		return err
	}
	if err := res.Check(); err != nil {
		return err
	}
	cn, err := c.sealBlocked(ctx, sub.comp, buf, res.ErrorBound, len(plan), workers)
	if err != nil {
		return err
	}
	sub.lastBound = res.ErrorBound
	return c.write(cn, w)
}

func (c *replayClient) tune(ctx context.Context, sub *replaySub, sample pressio.Buffer, race bool) (core.Result, error) {
	id := c.tr.begin("core.tune")
	res, err := sub.tuner.TuneWithPrediction(ctx, sample, sub.lastBound)
	c.tr.end(id, sample.Bytes(), 0)
	rec := tuneRecord{span: id, race: race, evals: res.Iterations, hadPrediction: sub.lastBound > 0,
		usedPrediction: res.UsedPrediction, direct: res.Direct}
	for _, r := range res.Regions {
		if r.Started {
			rec.regionsStarted++
		}
	}
	c.tr.tunes = append(c.tr.tunes, rec)
	return res, err
}

func (c *replayClient) sealBlocked(ctx context.Context, comp pressio.Compressor, buf pressio.Buffer, bound float64, numBlocks, workers int) (container.Container, error) {
	id := c.tr.begin("pressio.seal_blocked")
	cn, err := pressio.SealBlocked(ctx, comp, buf, bound, numBlocks, workers)
	c.tr.end(id, buf.Bytes(), len(cn.Payload))
	c.tr.setWorkers(id, min(workers, numBlocks))
	return cn, err
}

func (c *replayClient) write(cn container.Container, w io.Writer) error {
	id := c.tr.begin("container.write")
	n, err := cn.WriteTo(w)
	c.tr.end(id, 0, int(n))
	return err
}

// autoCandidate is one codec's part in a replayed race.
type autoCandidate struct {
	codec string
	raced bool // tuned feasibly and scored
	bound float64
	score float64
	evals int
}

// sealAuto mirrors the CodecAuto branch of Client.Compress: race, seal with
// the winner, and demote a winner that misses the band on the whole field.
func (c *replayClient) sealAuto(ctx context.Context, w io.Writer, buf pressio.Buffer) error {
	id := c.tr.begin("fraz.auto.race")
	cands, winner, err := c.race(ctx, buf)
	c.tr.end(id, buf.Bytes(), 0)
	rec := raceRecord{span: id}
	defer func() { c.tr.races = append(c.tr.races, rec) }()
	for _, cand := range cands {
		rec.evals += cand.evals
		if !cand.raced {
			rec.wasted += cand.evals
		}
	}
	if err != nil {
		return err
	}
	for {
		sub, err := c.sub(cands[winner].codec)
		if err != nil {
			return err
		}
		err = c.sealTuned(ctx, w, sub, buf)
		var inf *core.InfeasibleError
		if err == nil || !errors.As(err, &inf) {
			return err
		}
		// The race scored candidates on a sampled block, so the winner can
		// miss the band on the whole field: promote the best other raced
		// candidate, as the public path does.
		rec.demotions++
		rec.wasted += cands[winner].evals
		cands[winner].raced = false
		next := -1
		for i, cand := range cands {
			if cand.raced && (next < 0 || cand.score > cands[next].score) {
				next = i
			}
		}
		if next < 0 {
			return err
		}
		winner = next
		nextSub, err := c.sub(cands[winner].codec)
		if err != nil {
			return err
		}
		nextSub.lastBound = cands[winner].bound
	}
}

// race mirrors the CodecAuto race: capability pre-filter, one tune per
// eligible codec on the sampled block, highest reconstruction PSNR wins.
func (c *replayClient) race(ctx context.Context, buf pressio.Buffer) ([]autoCandidate, int, error) {
	_, sample, _, err := c.plan(buf)
	if err != nil {
		return nil, 0, err
	}
	rank, dtype := len(buf.Shape), buf.DType().String()
	var cands []autoCandidate
	best := -1
	var closest *core.InfeasibleError
	for _, ci := range fraz.Codecs() {
		if ci.Lossless || !ci.SupportsRank(rank) || !ci.SupportsDType(dtype) || (!ci.ErrorBounded && !ci.FixedRate) {
			continue
		}
		cand := autoCandidate{codec: ci.Name}
		sub, err := c.sub(ci.Name)
		if err != nil {
			cands = append(cands, cand)
			continue
		}
		res, err := c.tune(ctx, sub, sample, true)
		cand.evals = res.Iterations
		if err != nil {
			if ctx.Err() != nil {
				return cands, 0, err
			}
			cands = append(cands, cand)
			continue
		}
		if !res.Feasible {
			var ie *core.InfeasibleError
			if errors.As(res.Check(), &ie) && (closest == nil || ie.ClosestRatio > closest.ClosestRatio) {
				closest = ie
			}
			cands = append(cands, cand)
			continue
		}
		score, err := c.score(sub, sample, res.ErrorBound)
		if err != nil {
			cands = append(cands, cand)
			continue
		}
		cand.raced, cand.bound, cand.score = true, res.ErrorBound, score
		cands = append(cands, cand)
		if best < 0 || score > cands[best].score {
			best = len(cands) - 1
		}
	}
	if best < 0 {
		if closest != nil {
			return cands, 0, closest
		}
		return cands, 0, fmt.Errorf("no eligible codec for rank-%d %s data", rank, dtype)
	}
	if sub, err := c.sub(cands[best].codec); err == nil {
		sub.lastBound = cands[best].bound
	}
	return cands, best, nil
}

// score is the race's comparison key for the fixed-ratio objective: the
// reconstruction PSNR at the tuned bound, one cached round trip.
func (c *replayClient) score(sub *replaySub, sample pressio.Buffer, bound float64) (float64, error) {
	id := c.tr.begin("pressio.evaluate")
	rep, _, err := pressio.NewEvaluator(c.cache, sub.comp, sample).Full(bound)
	c.tr.end(id, sample.Bytes(), 0)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(rep.PSNR) {
		return 0, fmt.Errorf("reconstruction PSNR is NaN at bound %g", bound)
	}
	return rep.PSNR, nil
}

// --- the replayed open ---------------------------------------------------------

// replayOpen mirrors Client.DecompressFull: read the container, then open
// its blocks.
func replayOpen(ctx context.Context, tr *tracer, r io.Reader, workers int) (pressio.Buffer, error) {
	var cn container.Container
	id := tr.begin("container.read")
	n, err := cn.ReadFrom(r)
	tr.end(id, int(n), 0)
	if err != nil {
		return pressio.Buffer{}, err
	}
	return replayOpenContainer(ctx, tr, cn, workers)
}

// replayOpenContainer mirrors pressio.OpenBlocked with decorated codecs.
func replayOpenContainer(ctx context.Context, tr *tracer, cn container.Container, workers int) (pressio.Buffer, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cn.Header.DType != container.Float32 {
		return pressio.Buffer{}, fmt.Errorf("traced open supports float32, container holds %s", cn.Header.DType)
	}
	id := tr.begin("pressio.open_blocked")
	defer func() { tr.end(id, len(cn.Payload), 4*cn.Header.Shape.Len()) }()
	if cn.Blocks == nil {
		tr.setWorkers(id, 1)
		comp, err := timedCompressor(tr, cn.Header.Codec)
		if err != nil {
			return pressio.Buffer{}, err
		}
		return comp.Decompress(cn.Payload, cn.Header.Shape, cn.Header.DType)
	}
	plan, err := blocks.Plan(cn.Header.Shape, len(cn.Blocks))
	if err != nil {
		return pressio.Buffer{}, err
	}
	if len(plan) != len(cn.Blocks) {
		return pressio.Buffer{}, fmt.Errorf("%d blocks indexed, shape %s splits into %d", len(cn.Blocks), cn.Header.Shape, len(plan))
	}
	tr.setWorkers(id, min(workers, len(plan)))
	out := make([]float32, cn.Header.Shape.Len())
	err = parallel.ForEach(ctx, len(plan), workers, func(ctx context.Context, i int) error {
		comp, err := timedCompressor(tr, cn.Header.Codec)
		if err != nil {
			return err
		}
		payload, err := cn.BlockPayload(i)
		if err != nil {
			return err
		}
		dec, err := comp.Decompress(payload, plan[i].Shape, cn.Header.DType)
		if err != nil {
			return err
		}
		return blocks.Scatter(out, plan[i], dec.Float32())
	})
	if err != nil {
		return pressio.Buffer{}, err
	}
	return pressio.NewBufferOf(out, cn.Header.Shape)
}

// rawBytes views a float32 slice as its bytes, to compare reconstructions.
func rawBytes(data []float32) []byte {
	if len(data) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), 4*len(data))
}

// --- the replayed dataset ------------------------------------------------------

// replayDataset mirrors fraz.Dataset for the auto-archive workload: a
// CodecAuto client at Ratio(10) and Workers(1) sealing into an archive.
type replayDataset struct {
	tr *tracer
	c  *replayClient
	w  *archive.Writer
	r  *archive.Reader
}

func newReplayDataset(tr *tracer, out io.Writer) (*replayDataset, error) {
	w, err := archive.NewWriter(out)
	if err != nil {
		return nil, err
	}
	return &replayDataset{tr: tr, c: newReplayClient(tr, fraz.CodecAuto, 10, 1), w: w}, nil
}

// add mirrors Dataset.AddField: seal into a staging buffer, then append.
func (d *replayDataset) add(ctx context.Context, in *input) error {
	var staged bytes.Buffer
	if err := d.c.seal(ctx, &staged, in); err != nil {
		return err
	}
	id := d.tr.begin("archive.write")
	err := d.w.Add(in.name, 0, staged.Bytes())
	d.tr.end(id, 0, staged.Len())
	return err
}

func (d *replayDataset) close() error {
	id := d.tr.begin("archive.write")
	err := d.w.Close()
	d.tr.end(id, 0, 0)
	return err
}

func (d *replayDataset) openReader(data []byte) error {
	id := d.tr.begin("archive.open")
	r, err := archive.OpenReader(bytes.NewReader(data))
	d.tr.end(id, 0, 0)
	d.r = r
	return err
}

func (d *replayDataset) openField(ctx context.Context, name string) (pressio.Buffer, error) {
	if d.r == nil {
		return pressio.Buffer{}, errors.New("archive not open")
	}
	id := d.tr.begin("archive.open")
	cn, err := d.r.Open(name, 0)
	d.tr.end(id, len(cn.Payload), 0)
	if err != nil {
		return pressio.Buffer{}, err
	}
	return replayOpenContainer(ctx, d.tr, cn, 0)
}
