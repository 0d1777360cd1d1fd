package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"fraz/internal/container"
	"fraz/internal/grid"
	"fraz/internal/pressio"
)

// This file holds the traced run's span store and the codec decorator;
// replay.go replays the public calls through the layers, and layers.go turns
// the spans into the per-layer metrics.

// span is one timed call. Parent is -1 for the root span of an op.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	In      int    `json:"in_bytes,omitempty"`
	Out     int    `json:"out_bytes,omitempty"`
	Workers int    `json:"workers,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tuneRecord is one core.Tuner.TuneWithPrediction call.
type tuneRecord struct {
	span           int
	race           bool // a candidate tune of the auto race, not a seal's
	evals          int
	hadPrediction  bool
	usedPrediction bool
	direct         bool
	regionsStarted int
}

// raceRecord is one CodecAuto race.
type raceRecord struct {
	span      int
	evals     int
	wasted    int // evaluations of candidates that ended infeasible or failed
	demotions int
}

// tracer keeps spans in memory. Layer spans are opened and closed by the
// op's own goroutine, so they nest as a stack; codec decorators run on
// worker goroutines and record leaf spans under the innermost open span.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	stack  []int
	ops    int
	tunes  []tuneRecord
	races  []raceRecord
	caches []*pressio.Cache
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open one; with none open it starts
// a new op.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	} else {
		t.ops++
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.ops, Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id.
func (t *tracer) end(id, in, out int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End, s.In, s.Out = t.now(), in, out
	// Closing a span also drops any span a panic left open above it.
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == id {
			t.stack = t.stack[:i]
			break
		}
	}
}

// leaf records a finished call that started at start under the innermost
// open span.
func (t *tracer) leaf(name string, start time.Time, in, out int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: t.ops, Name: name,
		Start: int64(start.Sub(t.t0)), End: t.now(), In: in, Out: out})
}

func (t *tracer) setWorkers(id, workers int) {
	t.mu.Lock()
	t.spans[id].Workers = workers
	t.mu.Unlock()
}

// writeFile writes the host record and every span as JSON.
func (t *tracer) writeFile(path string, host hostRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Host  hostRecord `json:"host"`
		Spans []span     `json:"spans"`
	}{host, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// --- the codec decorator -------------------------------------------------------

// timedCodec records a leaf span around every Compress and Decompress.
type timedCodec struct {
	pressio.Compressor
	tr     *tracer
	kernel string // "sz" for sz:abs and sz:rel, and so on
}

func (c timedCodec) Compress(buf pressio.Buffer, bound float64) ([]byte, error) {
	start := time.Now()
	out, err := c.Compressor.Compress(buf, bound)
	c.tr.leaf(c.kernel+".encode", start, buf.Bytes(), len(out))
	return out, err
}

func (c timedCodec) Decompress(comp []byte, shape grid.Dims, dt container.DType) (pressio.Buffer, error) {
	start := time.Now()
	buf, err := c.Compressor.Decompress(comp, shape, dt)
	c.tr.leaf(c.kernel+".decode", start, len(comp), buf.Bytes())
	return buf, err
}

// timedRateCodec is timedCodec for a fixed-rate codec. It forwards
// pressio.RateCompressor: without it the tuner's zero-evaluation direct
// path for frsz:rate would silently turn into a search.
type timedRateCodec struct {
	timedCodec
	rate pressio.RateCompressor
}

func (c timedRateCodec) CompressedSize(shape grid.Dims, bitsPerValue int) int {
	return c.rate.CompressedSize(shape, bitsPerValue)
}

func (c timedRateCodec) MaxBits(dt container.DType) int { return c.rate.MaxBits(dt) }

func timedCompressor(tr *tracer, name string) (pressio.Compressor, error) {
	comp, err := pressio.New(name)
	if err != nil {
		return nil, err
	}
	kernel, _, _ := strings.Cut(name, ":")
	tc := timedCodec{Compressor: comp, tr: tr, kernel: kernel}
	if rc, ok := comp.(pressio.RateCompressor); ok {
		return timedRateCodec{timedCodec: tc, rate: rc}, nil
	}
	return tc, nil
}
