// Package fraz is a pure-Go implementation of "FRaZ: A Generic
// High-Fidelity Fixed-Ratio Lossy Compression Framework for Scientific
// Floating-point Data" (Underwood, Di, Calhoun, Cappello — IPDPS 2020).
//
// Scientific users usually know how much storage or bandwidth they have — a
// fixed compression ratio — but error-bounded lossy compressors (SZ, ZFP,
// MGARD) are parameterised by an error bound. FRaZ closes the gap: it
// searches the bound space with a parallel global optimizer until the
// achieved ratio lands inside the requested band, for any codec behind a
// generic adapter layer. This implementation generalises the search to any
// of four objectives — fixed ratio, fixed PSNR, fixed SSIM, fixed measured
// max-error — answering the paper's future-work call for tuning to "the
// quality of a scientist's analysis result".
//
// # Usage
//
// The root package is the public API. Build a Client with functional
// options and stream self-describing .fraz containers:
//
//	c, err := fraz.New("sz:abs", fraz.Ratio(12), fraz.Tolerance(0.05))
//	if err != nil { ... }
//	res, err := c.Compress(ctx, f, data, []int{100, 500, 500})
//	if errors.Is(err, fraz.ErrInfeasible) {
//		// no bound reaches 12:1 ±5% on this data; errors.As on
//		// *fraz.InfeasibleError reports the closest observed ratio.
//	}
//
// Quality targets use the same constructor through the Objective API —
// Ratio is sugar for Target(FixedRatio(r)):
//
//	c, err := fraz.New("sz:abs", fraz.TargetPSNR(60))          // ≥ ~60 dB, as cheap as possible
//	c, err := fraz.New("zfp:accuracy", fraz.TargetSSIM(0.95))  // Baker-style visual criterion
//	c, err := fraz.New("sz:abs", fraz.Target(fraz.FixedMaxError(100).WithTolerance(5)))
//
// Ratio and PSNR bands are fractional (target·(1±ε)); SSIM and max-error
// bands are absolute (target±ε). Quality-targeted archives record the
// objective, target, band, and achieved value in the container header, and
// a holder of the original data can re-verify the promise (see
// ObjectiveByName and Objective.Measure, or `fraz -decompress x.fraz
// -verify`).
//
// One combination needs no search at all: a fixed-ratio objective with the
// truly fixed-rate codec ("frsz:rate", whose compressed size is a
// closed-form function of shape and bits-per-value) is satisfied directly —
// the tuner inverts the target ratio into a whole-bit rate and seals with
// zero compressor evaluations. CompressResult.Direct reports when this fast
// path ran; CodecInfo.FixedRate identifies the codecs that enable it.
//
// Decompression needs no configuration — the container header carries the
// codec, tuned bound, achieved ratio, shape, element type, and (for
// quality-targeted archives) the recorded objective:
//
//	data, shape, err := fraz.Decompress(ctx, f)
//
// # Precision
//
// Every entry point is dtype-generic over float32 and float64 (the Element
// constraint). The one-shot fraz.Compress infers the width from its
// argument; Client methods come in typed pairs (Compress/Compress64,
// Tune/Tune64, Decompress/Decompress64) with generic package-level forms
// (CompressT, TuneT, DecompressAs) for callers that are themselves generic:
//
//	_, err := fraz.Compress(ctx, f, doubles, shape, fraz.Ratio(12)) // doubles is []float64
//	data, shape, err := fraz.DecompressAs[float64](ctx, f)
//
// The element width is recorded in the container's dtype byte:
//
//	dtype  element
//	0      float32 (IEEE-754 single precision)
//	1      float64 (IEEE-754 double precision)
//
// Width is part of the contract, never coerced: decoding a float64 archive
// through a float32 accessor (or vice versa) is an error, and
// DecompressFull returns whichever of Data/Data64 the archive holds.
// Float32 archives written by earlier builds carry dtype 0 and decode
// byte-identically.
//
// One-shot helpers (fraz.Compress, fraz.Decompress) cover single fields;
// Client adds tuning without sealing (Tune, TuneSeries, TuneFields — the
// paper's time-step and field parallelism) and carries the last feasible
// bound across calls as the next search's starting prediction, for every
// objective. Codec discovery goes through fraz.Codecs, which describes each
// registered back end's capabilities (bound semantics, error-boundedness,
// supported ranks and element types — see CodecInfo.SupportsRank and
// CodecInfo.SupportsDType). Failures are errors.Is-able: ErrInfeasible,
// ErrUnknownCodec, ErrCorrupt.
//
// # Multi-field datasets
//
// Real simulation snapshots are many named fields on one grid, and no
// single codec wins on all of them. Dataset bundles them into one .frazd
// archive — each field an embedded .fraz container with its own codec,
// bound, and objective record, indexed by a CRC-guarded directory:
//
//	ds, err := fraz.NewDataset(f, fraz.TargetPSNR(60))
//	_, err = ds.AddField(ctx, "CLOUDf", cloud, shape)   // races codecs, seals with the winner
//	_, err = ds.AddField(ctx, "PRECIPf", precip, shape) // may pick a different codec
//	err = ds.Close()                                    // writes directory + footer
//
// Dataset clients default to fraz.CodecAuto: every field runs a codec race
// (candidates filtered by capability, tried on a sampled block through the
// shared evaluation cache, best ratio at the target quality wins) and the
// winner is recorded per field; CompressResult.Selection reports the full
// scoreboard. Pass fraz.Codec to pin one codec instead, or use CodecAuto
// with a plain Client (fraz.New(fraz.CodecAuto, …)) for single fields.
//
// Time series append without rewriting: AppendStep adds field@step to an
// existing archive (AppendDataset reopens one), leaving earlier payload
// bytes untouched — only the trailing directory is rewritten at Close.
// Reading is lazy: OpenDataset parses just the directory, and
// OpenField/OpenFieldStep decodes a single field without touching its
// neighbours. Dataset errors are errors.Is-able too: ErrFieldNotFound,
// ErrDuplicateField, ErrCorrupt.
//
// # API stability
//
// The root fraz package is the supported surface: additions may happen in
// any release, but existing identifiers keep their signatures and
// semantics, and the .fraz container format stays readable across versions
// (a build decodes every format version up to its own). Everything under
// internal/ is implementation detail with no compatibility promise — the
// Go compiler enforces that outside programs cannot import it. The
// programs under cmd/ and examples/ consume only the public package and
// double as live documentation of it.
//
// # Implementation layout
//
//   - internal/core      — the FRaZ autotuner and parallel orchestrator: the
//     objective-generic search (ratio/PSNR/SSIM/max-error through one
//     region-parallel loop) plus the blocked sealing path (tune on a sampled
//     block, compress all blocks concurrently)
//   - internal/pressio   — the generic codec layer (libpressio analogue): codec
//     registry with capabilities, the shared evaluation cache (compress-only
//     and full round-trip entries, bounded with FIFO eviction), and the
//     block-parallel SealBlocked/OpenBlocked pipeline
//   - internal/container — the self-describing .fraz on-disk container format
//     (v1 monolithic payload, v2 block index + independently-decodable
//     blocks), with streaming WriteTo/ReadFrom and incremental CRC checks
//   - internal/archive   — the .frazd dataset super-container: many named
//     .fraz payloads (field@step) behind a CRC-guarded trailing directory,
//     append-friendly and lazily readable; see docs/format.md
//   - internal/blocks    — slowest-axis block decomposition (split/reassemble)
//   - internal/sz        — SZ-like prediction-based error-bounded compressor
//   - internal/szx       — SZx-style ultra-fast error-bounded compressor
//     (constant-block detection + leading-byte truncation; trades ratio for
//     one to two orders of magnitude more throughput)
//   - internal/frsz      — FRSZ-style true fixed-rate compressor (per-block
//     exponent scaling to fixed-point, exactly N bits per value); its
//     closed-form compressed size powers the tuner's zero-evaluation direct
//     path for fixed-ratio objectives
//   - internal/zfp       — ZFP-like transform compressor (accuracy + fixed-rate)
//   - internal/mgard     — MGARD-like multilevel compressor
//   - internal/pool      — size-bucketed free lists for hot-path scratch
//   - internal/optim     — Dlib-style global minimiser with cutoff + baselines
//   - internal/dataset   — synthetic SDRBench stand-ins (Hurricane, HACC, CESM, EXAALT, NYX)
//   - internal/metrics   — PSNR, SSIM, ACF(error), ratio/bit-rate metrics
//   - internal/experiments — regenerates every table and figure of the paper
//   - internal/analysis  — frazlint, the project's own static-analysis suite
//     (stdlib-only go/analysis analogue): poolcheck, magiccheck, dtypecheck,
//     floateq, and errdrop machine-check the pool-lifecycle, stream-magic,
//     dtype-dispatch, float-comparison, and error-propagation invariants;
//     run it with `go run ./cmd/frazlint ./...`
//   - internal/server    — the frazd HTTP service: tune→seal→archive over
//     HTTP with worker-pool admission control (bounded queue, per-tenant
//     limits, 429/503 + Retry-After backpressure), a server-wide evaluation
//     cache shared across requests via SharedCache, a content-addressed
//     archive store, graceful drain, and a Prometheus-style /metrics
//     surface; see docs/http-api.md for the endpoint reference
//
// Executables are under cmd/ (fraz, frazd, frazbench, datagen, frazlint,
// and the frazperf load generator for a running frazd) and runnable usage
// examples under examples/; see README.md for a quickstart and the .fraz
// format table. The benchmarks in bench_test.go regenerate the paper's
// evaluation (one benchmark per table/figure) plus ablations of the design
// choices (region parallelism, cutoff, bound reuse, evaluation cache).
package fraz
