package main

import (
	"bytes"
	"context"

	"fraz"
	"fraz/internal/dataset"
	"fraz/internal/parallel"
	"fraz/internal/pressio"
)

// workload is one benchmark workload: how to set its inputs up from a seed,
// and how many passes make a cycle that covers every input once.
type workload struct {
	name  string
	cycle int
	setup func(seed int64, small bool) (bench, error)
}

// bench is a set-up workload.
type bench interface {
	// warmup runs the untimed warm-up pass.
	warmup(ctx context.Context, o *opRunner)
	// pass runs pass p: its seals and opens, each through o.
	pass(ctx context.Context, p int, o *opRunner)
}

var workloads = []workload{
	{name: "ratio-series", cycle: seriesWindows, setup: newRatioSeries},
	{name: "auto-archive", cycle: 1, setup: newAutoArchive},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// input is one generated field.
type input struct {
	name  string
	step  int
	data  []float32
	shape []int
}

func (in *input) bytes() int { return 4 * len(in.data) }

func hurricane(small bool) dataset.Dataset {
	scale := dataset.ScaleMedium
	if small {
		scale = dataset.ScaleTiny
	}
	ds, err := dataset.New("Hurricane", scale)
	if err != nil {
		panic(err) // unreachable: Hurricane is a built-in dataset
	}
	return ds
}

// seedIndex maps a seed onto [0, n).
func seedIndex(seed int64, n int) int {
	i := int(seed % int64(n))
	if i < 0 {
		i += n
	}
	return i
}

// --- ratio-series -------------------------------------------------------------

// seriesFields are the medium Hurricane fields on which sz:abs reaches
// Ratio(10) at step 0; the other eight are infeasible for sz:abs, a case
// auto-archive carries.
var seriesFields = []string{"QVAPORf", "PRECIPf", "TCf", "Uf", "Vf"}

// seriesWindows splits the 48 time steps into windows of 12 consecutive
// steps; one pass seals one window of every field with fresh clients, and a
// cycle of four passes covers every window once. The seed chooses the
// window a run starts with. Windows are fixed rather than started at any
// step because where a window starts changes the work: PRECIPf turns
// infeasible on some steps, each such step burns a full search, and how
// many do depends on the bound carried in from the step before. Runs whose
// windows started at five different steps read seal_mbps from 4.4 to 10.1.
const seriesWindows = 4

type ratioSeries struct {
	steps [][]*input // steps[f][t] is field f at time step t
	first int        // the window a run starts with
	out   bytes.Buffer
}

func newRatioSeries(seed int64, small bool) (bench, error) {
	ds := hurricane(small)
	b := &ratioSeries{steps: make([][]*input, len(seriesFields)), first: seedIndex(seed, seriesWindows)}
	for f := range b.steps {
		b.steps[f] = make([]*input, ds.TimeSteps)
	}
	err := parallel.ForEach(context.Background(), len(seriesFields)*ds.TimeSteps, 0, func(_ context.Context, i int) error {
		f, step := i/ds.TimeSteps, i%ds.TimeSteps
		data, shape, err := ds.Generate(seriesFields[f], step)
		if err != nil {
			return err
		}
		b.steps[f][step] = &input{name: seriesFields[f], step: step, data: data, shape: []int(shape)}
		return nil
	})
	return b, err
}

// warmup seals and opens the first step of every field.
func (b *ratioSeries) warmup(ctx context.Context, o *opRunner) {
	for _, steps := range b.steps {
		b.series(ctx, o, steps[:1])
	}
}

func (b *ratioSeries) pass(ctx context.Context, p int, o *opRunner) {
	w := (b.first + p) % seriesWindows
	for _, steps := range b.steps {
		n := len(steps) / seriesWindows
		b.series(ctx, o, steps[w*n:(w+1)*n])
	}
}

// series seals consecutive steps of one field with one fresh client, so each
// step's bound is the next step's prediction, and opens every seal.
func (b *ratioSeries) series(ctx context.Context, o *opRunner, steps []*input) {
	c, err := fraz.New("sz:abs", fraz.Ratio(10), fraz.Workers(1))
	if err != nil {
		o.failOp("building client: %v", err)
		return
	}
	var rep *replayClient
	var repOut bytes.Buffer
	if o.tr != nil {
		rep = newReplayClient(o.tr, "sz:abs", 10, 1)
	}
	for _, in := range steps {
		in := in
		b.out.Reset()
		res, ok := o.seal(in, 10,
			func() (*fraz.CompressResult, []byte, error) {
				res, err := c.Compress(ctx, &b.out, in.data, in.shape)
				return res, b.out.Bytes(), err
			},
			func() ([]byte, error) {
				repOut.Reset()
				err := rep.seal(ctx, &repOut, in)
				return repOut.Bytes(), err
			})
		if !ok {
			continue
		}
		sealed := o.corrupt(b.out.Bytes())
		o.open(in, res,
			func() (*fraz.DecompressResult, error) {
				return c.DecompressFull(ctx, bytes.NewReader(sealed))
			},
			func() (pressio.Buffer, error) {
				return replayOpen(ctx, o.tr, bytes.NewReader(sealed), 1)
			})
	}
}

// --- auto-archive ------------------------------------------------------------

// archiveFields is the medium Hurricane snapshot auto-archive seals.
// CLOUDf stands for the six sparse moisture fields (QCLOUDf, QCLOUDf.log10,
// QGRAUPf, QICEf, QRAINf, QSNOWf), which race alike: every error-bounded
// codec burns its full search budget on them and frsz:rate wins, about 8 s
// each. Sealing all thirteen fields takes 71 s per pass; these seven take
// about 21 s and keep one field of every behaviour.
var archiveFields = []string{"CLOUDf", "QVAPORf", "PRECIPf", "Pf", "TCf", "Uf", "Vf"}

// archiveStep is the snapshot auto-archive seals, whatever the seed. The
// race picks a different codec mix on every snapshot, and a different
// per-field cost in every field order (each candidate's tune starts from
// the bound its codec tuned to on the field before): when the seed chose
// the snapshot, open_mbps spread by 40% (quartile distance over median)
// across five seeds, and when it chose the order, seal_ms_p50 spread by 14%
// across ten.
const archiveStep = 0

type autoArchive struct {
	fields []*input
	warm   *input // the cheapest field, sealed alone by the warm-up
	out    bytes.Buffer
	repOut bytes.Buffer
}

func newAutoArchive(_ int64, small bool) (bench, error) {
	ds := hurricane(small)
	b := &autoArchive{}
	for _, name := range archiveFields {
		data, shape, err := ds.Generate(name, archiveStep)
		if err != nil {
			return nil, err
		}
		b.fields = append(b.fields, &input{name: name, step: archiveStep, data: data, shape: []int(shape)})
	}
	b.warm = b.fields[len(b.fields)-1]
	return b, nil
}

// warmup seals the cheapest field (Vf, about 0.5 s) into an archive of its
// own and reads it once: it runs every raced codec, which primes the pools.
// A full pass would take 26 s and be repeated with every set-up.
func (b *autoArchive) warmup(ctx context.Context, o *opRunner) {
	b.archive(ctx, o, []*input{b.warm}, 1)
}

func (b *autoArchive) pass(ctx context.Context, _ int, o *opRunner) {
	b.archive(ctx, o, b.fields, archiveReads)
}

// archive seals fields into a fresh in-memory .frazd with one Dataset, then
// reads the archive back reads times, opening every field each time.
func (b *autoArchive) archive(ctx context.Context, o *opRunner, fields []*input, reads int) {
	b.out.Reset()
	ds, err := fraz.NewDataset(&b.out, fraz.Codec(fraz.CodecAuto), fraz.Ratio(10), fraz.Workers(1))
	if err != nil {
		o.failOp("NewDataset: %v", err)
		return
	}
	var rep *replayDataset
	if o.tr != nil {
		b.repOut.Reset()
		if rep, err = newReplayDataset(o.tr, &b.repOut); err != nil {
			o.failOp("replay dataset: %v", err)
			return
		}
	}
	var sealed []*input
	results := map[string]*fraz.CompressResult{}
	for _, in := range fields {
		in := in
		res, ok := o.seal(in, 10,
			func() (*fraz.CompressResult, []byte, error) {
				res, err := ds.AddField(ctx, in.name, in.data, in.shape)
				if err != nil {
					return nil, nil, err
				}
				return &res.CompressResult, nil, nil
			},
			func() ([]byte, error) { return nil, rep.add(ctx, in) })
		if ok {
			sealed = append(sealed, in)
			results[in.name] = res
		}
	}
	if !o.call(sealCall, "fraz.close",
		func() ([]byte, error) {
			err := ds.Close()
			return b.out.Bytes(), err
		},
		func() ([]byte, error) {
			err := rep.close()
			return b.repOut.Bytes(), err
		}) {
		return
	}

	archive := o.corrupt(b.out.Bytes())
	for i := 0; i < reads; i++ {
		b.read(ctx, o, archive, sealed, results)
	}
}

// archiveReads is how many times a pass reopens its archive and every field
// in it, about 5 s of reads. One read of seven 512 KiB fields takes about
// 35 ms, and on the host the benchmark was built on the read rate swung by
// 25% from one second to the next: with 30 reads per pass, open_mbps spread
// by 31% across ten runs. Archives are also read more often than written.
const archiveReads = 150

// read opens an archive and every sealed field in it.
func (b *autoArchive) read(ctx context.Context, o *opRunner, archive []byte, sealed []*input, results map[string]*fraz.CompressResult) {
	var rep *replayDataset
	if o.tr != nil {
		rep = &replayDataset{tr: o.tr}
	}
	var rd *fraz.Dataset
	if !o.call(openCall, "fraz.open_dataset",
		func() ([]byte, error) {
			var err error
			rd, err = fraz.OpenDataset(bytes.NewReader(archive))
			return nil, err
		},
		func() ([]byte, error) { return nil, rep.openReader(archive) }) {
		return
	}
	if got := rd.FieldNames(); len(got) != len(sealed) {
		o.fail("archive lists %d fields %v, sealed %d", len(got), got, len(sealed))
	}
	for _, in := range sealed {
		in := in
		o.open(in, results[in.name],
			func() (*fraz.DecompressResult, error) { return rd.OpenField(ctx, in.name) },
			func() (pressio.Buffer, error) { return rep.openField(ctx, in.name) })
	}
}
