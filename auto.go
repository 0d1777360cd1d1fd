package fraz

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"fraz/internal/blocks"
	"fraz/internal/core"
	"fraz/internal/pressio"
)

// This file implements the CodecAuto selection policy: the per-field codec
// race behind fraz.New(fraz.CodecAuto, ...) and Dataset. The survey
// literature the project tracks (Di et al. 2024) calls per-field codec
// choice a first-order ratio lever — SZ-style prediction wins on smooth
// fields, transform coding on oscillatory ones, SZx-style truncation on
// near-constant ones — and which codec wins is a property of each field's
// statistics, not of the dataset. The race reuses the machinery that
// already exists: candidates are pre-filtered on the registry's capability
// windows, each one is tuned on the same sampled block the blocked seal
// would tune on, and every evaluation flows through the shared evaluation
// cache, so racing N codecs costs N independent tunes on one block — and
// re-racing the same field (or sealing with the winner afterwards) is
// answered from memory.

// AutoCandidate reports one registered codec's part in a CodecAuto race.
type AutoCandidate struct {
	// Codec is the candidate's registry name.
	Codec string
	// Skipped is the reason the codec did not win: a capability-window
	// mismatch (it never raced), a tuning failure, or losing the score
	// comparison leaves it empty — only pre-filter and failure reasons are
	// recorded here; a raced loser has Skipped == "" and Feasible == true.
	Skipped string
	// Feasible reports whether the candidate reached the acceptance band on
	// the sampled block.
	Feasible bool
	// ErrorBound, Ratio, and AchievedValue describe the candidate's tuned
	// configuration on the sample (zero when the codec never raced).
	ErrorBound    float64
	Ratio         float64
	AchievedValue float64
	// Score is the selection score: the sample compression ratio for
	// quality objectives ("ratio at quality"), the measured reconstruction
	// PSNR at the tuned bound for the fixed-ratio objective ("quality at
	// ratio").
	Score float64
	// Evaluations counts compressor invocations this candidate's tune
	// performed; CacheHits of them were served from the shared cache.
	Evaluations int
	CacheHits   int
}

// AutoSelection is the outcome of one CodecAuto race: the winning codec and
// every candidate's result, in Codecs() order.
type AutoSelection struct {
	// Codec is the winner — the codec the field was (or will be) sealed
	// with.
	Codec string
	// SampleBlock is the index of the block the race tuned on.
	SampleBlock int
	// Candidates holds one entry per registered codec.
	Candidates []AutoCandidate
}

// Raced lists the candidates that actually competed (passed the capability
// pre-filter and tuned feasibly).
func (s *AutoSelection) Raced() []AutoCandidate {
	var out []AutoCandidate
	for _, c := range s.Candidates {
		if c.Skipped == "" {
			out = append(out, c)
		}
	}
	return out
}

// demoteWinner records that the current winner failed on the full field
// (the race scored it on a sampled block, which is a heuristic) and
// promotes the best remaining raced candidate. It returns the promoted
// candidate; ok is false when no raced candidate remains.
func (s *AutoSelection) demoteWinner(reason string) (AutoCandidate, bool) {
	best := -1
	bestScore := math.Inf(-1)
	for i := range s.Candidates {
		cand := &s.Candidates[i]
		if cand.Codec == s.Codec {
			cand.Skipped = reason
			cand.Feasible = false
			continue
		}
		if cand.Skipped == "" && cand.Score > bestScore {
			bestScore = cand.Score
			best = i
		}
	}
	if best < 0 {
		return AutoCandidate{}, false
	}
	s.Codec = s.Candidates[best].Codec
	return s.Candidates[best], true
}

// promoteRunnerUp handles a race winner that missed the band on the full
// field: it demotes the winner, promotes the best remaining raced candidate,
// and primes that candidate's sub-client with its raced bound so the retry
// starts from it. It returns a nil client when no raced candidate remains.
func (c *Client) promoteRunnerUp(sel *AutoSelection, closestRatio float64) (*Client, error) {
	cand, ok := sel.demoteWinner(fmt.Sprintf("won the sample race but missed the band on the full field (closest ratio %.4g)", closestRatio))
	if !ok {
		return nil, nil
	}
	sub, err := c.autoClient(sel.Codec)
	if err != nil {
		return nil, err
	}
	sub.recordBound(cand.ErrorBound)
	return sub, nil
}

// newAutoClient builds the CodecAuto client: no compressor or tuner of its
// own, a shared evaluation cache for the per-codec sub-clients, eager
// validation of the options that cannot combine with automatic selection.
func newAutoClient(set settings) (*Client, error) {
	if set.fixedBound > 0 {
		return nil, fmt.Errorf("fraz: FixedBound cannot combine with %s: an explicit bound has different semantics for every codec", CodecAuto)
	}
	cache := set.cache
	if cache == nil {
		cache = NewEvalCache(0)
	}
	return &Client{
		set:         set,
		info:        CodecInfo{Name: CodecAuto, BoundName: "auto-selected per field"},
		auto:        true,
		autoCache:   cache,
		autoClients: map[string]*Client{},
	}, nil
}

// autoClient returns (building on first use) the sub-client for one codec:
// the same settings, the named codec, and the race's shared cache.
func (c *Client) autoClient(name string) (*Client, error) {
	c.autoMu.Lock()
	defer c.autoMu.Unlock()
	if sub, ok := c.autoClients[name]; ok {
		return sub, nil
	}
	set := c.set
	set.codec = name
	set.cache = c.autoCache
	sub, err := newClient(set)
	if err != nil {
		return nil, err
	}
	c.autoClients[name] = sub
	return sub, nil
}

// resolveAuto races the eligible codecs on a sampled block of buf and
// returns the winner's sub-client alongside the full selection record. The
// winner's tuned bound is recorded as its sub-client's next prediction, so
// the seal that follows re-validates the bound from the cache instead of
// searching again.
func (c *Client) resolveAuto(ctx context.Context, buf pressio.Buffer) (*Client, *AutoSelection, error) {
	sel, err := c.selectCodec(ctx, buf)
	if err != nil {
		return nil, nil, err
	}
	sub, err := c.autoClient(sel.Codec)
	if err != nil {
		return nil, nil, err
	}
	return sub, sel, nil
}

// selectCodec runs the CodecAuto race on a sampled block of buf: capability
// pre-filter, one tune per surviving candidate, best ratio-at-quality wins
// (ties break toward the lexicographically first codec name, keeping
// selection deterministic).
func (c *Client) selectCodec(ctx context.Context, buf pressio.Buffer) (*AutoSelection, error) {
	if c.set.objective.Name == "" {
		return nil, fmt.Errorf("fraz: %s requires a tuning target: pass fraz.Ratio, fraz.TargetPSNR, fraz.TargetSSIM, fraz.TargetMaxError, or fraz.Target to New", CodecAuto)
	}
	quality := c.set.objective.NeedsReport
	rank := len(buf.Shape)
	dtype := buf.DType().String()

	sample, sampleBlock, err := c.sampleBlock(buf)
	if err != nil {
		return nil, err
	}

	sel := &AutoSelection{SampleBlock: sampleBlock}
	best := -1
	bestScore := math.Inf(-1)
	anyRaced := false
	var closest *core.InfeasibleError
	for _, ci := range Codecs() {
		cand := AutoCandidate{Codec: ci.Name}
		switch {
		case ci.Lossless:
			cand.Skipped = "lossless: no tunable fidelity/size trade to search"
		case !ci.SupportsRank(rank):
			cand.Skipped = fmt.Sprintf("rank window [%d,%d] excludes rank-%d data", ci.MinRank, ci.MaxRank, rank)
		case !ci.SupportsDType(dtype):
			cand.Skipped = fmt.Sprintf("element-width window excludes %s data", dtype)
		case !ci.ErrorBounded && !quality && !ci.FixedRate:
			// A fixed-rate codec is exempt: it hits the target ratio by
			// construction at zero tuning cost, and the race still scores it
			// on measured reconstruction quality, so admitting it costs one
			// cached round trip and can only improve the scoreboard.
			cand.Skipped = "not error-bounded: a fixed-ratio archive with it would carry no fidelity promise"
		}
		if cand.Skipped != "" {
			sel.Candidates = append(sel.Candidates, cand)
			continue
		}
		sub, err := c.autoClient(ci.Name)
		if err != nil {
			cand.Skipped = err.Error()
			sel.Candidates = append(sel.Candidates, cand)
			continue
		}
		res, err := sub.tuner.TuneWithPrediction(ctx, sample, sub.prediction())
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			cand.Skipped = fmt.Sprintf("tuning failed: %v", err)
			sel.Candidates = append(sel.Candidates, cand)
			continue
		}
		cand.Feasible = res.Feasible
		cand.ErrorBound = res.ErrorBound
		cand.Ratio = res.AchievedRatio
		cand.AchievedValue = res.AchievedValue
		cand.Evaluations = res.Iterations
		cand.CacheHits = res.CacheHits
		if !res.Feasible {
			anyRaced = true
			cand.Skipped = "no bound reaches the acceptance band on the sample"
			if ie := infeasibleOf(res); closest == nil || ie.ClosestRatio > closest.ClosestRatio {
				closest = ie
			}
			sel.Candidates = append(sel.Candidates, cand)
			continue
		}
		score, err := c.candidateScore(sub, sample, res, quality)
		if err != nil {
			cand.Skipped = fmt.Sprintf("scoring failed: %v", err)
			sel.Candidates = append(sel.Candidates, cand)
			continue
		}
		anyRaced = true
		cand.Score = score
		sel.Candidates = append(sel.Candidates, cand)
		if score > bestScore {
			bestScore = score
			best = len(sel.Candidates) - 1
		}
	}
	if best < 0 {
		if anyRaced && closest != nil {
			// Every raced candidate tuned but missed the band: surface the
			// closest configuration the same way a single-codec tune would.
			return nil, closest
		}
		return nil, fmt.Errorf("fraz: %s found no eligible codec for rank-%d %s data (objective %s): %s",
			CodecAuto, rank, dtype, c.set.objective.Name, skipSummary(sel.Candidates))
	}
	sel.Codec = sel.Candidates[best].Codec
	if sub, err := c.autoClient(sel.Codec); err == nil {
		sub.recordBound(sel.Candidates[best].ErrorBound)
	}
	return sel, nil
}

// sampleBlock picks the block the race tunes on — the same middle block the
// blocked seal would tune on, so the winner's bound doubles as the seal's
// prediction. A shape that cannot split (or Blocks(1)) races on the whole
// field.
func (c *Client) sampleBlock(buf pressio.Buffer) (pressio.Buffer, int, error) {
	workers := c.set.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	numBlocks := c.set.blocks
	if numBlocks <= 0 {
		numBlocks = blocks.DefaultCount(buf.Shape, workers)
	}
	plan, err := blocks.Plan(buf.Shape, numBlocks)
	if err != nil {
		return pressio.Buffer{}, 0, fmt.Errorf("fraz: %s sampling: %w", CodecAuto, err)
	}
	if len(plan) <= 1 {
		return buf, 0, nil
	}
	idx := len(plan) / 2
	sub, err := buf.Slice(plan[idx])
	if err != nil {
		return pressio.Buffer{}, 0, fmt.Errorf("fraz: %s sampling block %d: %w", CodecAuto, idx, err)
	}
	return sub, idx, nil
}

// candidateScore turns one feasible tune into the race's comparison key.
// Quality objectives already hold quality fixed, so the score is the sample
// compression ratio; the fixed-ratio objective holds size fixed, so the
// score is the measured reconstruction PSNR at the tuned bound (one cached
// round-trip evaluation per candidate).
func (c *Client) candidateScore(sub *Client, sample pressio.Buffer, res core.Result, quality bool) (float64, error) {
	if quality {
		return res.AchievedRatio, nil
	}
	eval := pressio.NewEvaluator(c.autoCache.c, sub.comp, sample)
	rep, _, err := eval.Full(res.ErrorBound)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(rep.PSNR) {
		return 0, fmt.Errorf("reconstruction PSNR is NaN at bound %g", res.ErrorBound)
	}
	return rep.PSNR, nil
}

// infeasibleOf rebuilds the InfeasibleError a Result.Check would produce,
// used to report the best near-miss when every candidate fails.
func infeasibleOf(res core.Result) *core.InfeasibleError {
	err := res.Check()
	var ie *core.InfeasibleError
	if errors.As(err, &ie) {
		return ie
	}
	return &core.InfeasibleError{}
}

// skipSummary compacts the skip reasons for the no-eligible-codec error.
func skipSummary(cands []AutoCandidate) string {
	s := ""
	for i, cand := range cands {
		if i > 0 {
			s += "; "
		}
		s += fmt.Sprintf("%s: %s", cand.Codec, cand.Skipped)
	}
	return s
}
