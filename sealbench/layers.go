package main

import (
	"math"
	"sort"
	"time"
)

// kernels are the codec families whose kernels the per-layer metrics report.
var kernels = []string{"sz", "zfp", "mgard", "szx", "frsz", "flate"}

// layerMetrics computes the per-layer metrics of BENCHMARK.json from the
// spans of a traced run.
func layerMetrics(res *result, tr *tracer, s *samples, host hostRecord) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	spans := tr.spans
	children := make([][]int, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp.ID)
		}
	}
	// covered is the part of span id's interval its children cover.
	covered := func(id int) time.Duration {
		var iv [][2]int64
		for _, c := range children[id] {
			iv = append(iv, [2]int64{spans[c].Start, spans[c].End})
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var total, end int64
		end = math.MinInt64
		for _, x := range iv {
			if x[0] > end {
				total += x[1] - x[0]
				end = x[1]
			} else if x[1] > end {
				total += x[1] - end
				end = x[1]
			}
		}
		return time.Duration(total)
	}
	self := func(id int) time.Duration { return spans[id].dur() - covered(id) }

	type agg struct {
		n        int
		dur      time.Duration
		in, out  float64
		tail     time.Duration // time after the last child ended
		tailN    int
		childDur time.Duration
		slots    float64 // workers x duration, in ns
	}
	by := map[string]*agg{}
	var opDur, opCovered time.Duration
	seals, opens := 0, 0
	var sealDur time.Duration
	for _, sp := range spans {
		a := by[sp.Name]
		if a == nil {
			a = &agg{}
			by[sp.Name] = a
		}
		a.n++
		a.dur += sp.dur()
		a.in += float64(sp.In)
		a.out += float64(sp.Out)
		if sp.Parent < 0 && len(children[sp.ID]) > 0 {
			opDur += sp.dur()
			opCovered += covered(sp.ID)
		}
		switch sp.Name {
		case "fraz.seal":
			seals++
			sealDur += sp.dur()
		case "fraz.open":
			opens++
		case "pressio.seal_blocked", "pressio.open_blocked":
			var lastEnd int64
			for _, c := range children[sp.ID] {
				a.childDur += spans[c].dur()
				if spans[c].End > lastEnd {
					lastEnd = spans[c].End
				}
			}
			a.slots += float64(sp.Workers) * float64(sp.dur())
			if sp.Name == "pressio.seal_blocked" && len(children[sp.ID]) > 1 {
				a.tail += time.Duration(sp.End - lastEnd)
				a.tailN++
			}
		}
	}
	get := func(name string) *agg {
		if a := by[name]; a != nil {
			return a
		}
		return &agg{}
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	mbps := func(bytes float64, d time.Duration) float64 { return ratioOr0(bytes/1e6, d.Seconds()) }

	// fraz: the CodecAuto race.
	var raceEvals, raceWasted, demotions int
	var raceDur time.Duration
	for _, r := range tr.races {
		raceEvals += r.evals
		raceWasted += r.wasted
		demotions += r.demotions
		raceDur += spans[r.span].dur()
	}
	races := float64(len(tr.races))
	res.set("fraz.auto.race_evals", "evals/seal", ratioOr0(float64(raceEvals), races))
	res.set("fraz.auto.wasted_evals_frac", "fraction", ratioOr0(float64(raceWasted), float64(raceEvals)))
	res.set("fraz.auto.race_s", "s", ratioOr0(raceDur.Seconds(), races))
	res.set("fraz.auto.demotions", "1/seal", ratioOr0(float64(demotions), races))

	// core: the tunes that chose each seal's bound.
	var tuneDur, tuneSelf time.Duration
	var tunes, evals, predicted, predHits, direct, regions int
	for _, t := range tr.tunes {
		if t.race {
			continue
		}
		tunes++
		tuneDur += spans[t.span].dur()
		tuneSelf += self(t.span)
		evals += t.evals
		regions += t.regionsStarted
		if t.hadPrediction {
			predicted++
			if t.usedPrediction {
				predHits++
			}
		}
		if t.direct {
			direct++
		}
	}
	res.set("core.tune_frac", "fraction", ratioOr0(float64(tuneDur), float64(sealDur)))
	res.set("core.evals_per_seal", "evals/seal", ratioOr0(float64(evals), float64(seals)))
	res.set("core.prediction_hit_frac", "fraction", ratioOr0(float64(predHits), float64(predicted)))
	res.set("core.direct_frac", "fraction", ratioOr0(float64(direct), float64(tunes)))
	res.set("core.regions_started", "regions/tune", ratioOr0(float64(regions), float64(tunes)))
	res.set("core.self_ms", "ms/seal", ratioOr0(ms(tuneSelf), float64(seals)))

	// pressio and parallel.
	var hits, misses uint64
	for _, c := range tr.caches {
		h, m, _ := c.Stats()
		hits += h
		misses += m
	}
	sb, ob := get("pressio.seal_blocked"), get("pressio.open_blocked")
	res.set("pressio.cache_hit_frac", "fraction", ratioOr0(float64(hits), float64(hits+misses)))
	res.set("pressio.seal_blocked_ms", "ms", ratioOr0(ms(sb.dur), float64(sb.n)))
	res.set("pressio.open_blocked_ms", "ms", ratioOr0(ms(ob.dur), float64(ob.n)))
	res.set("parallel.busy_frac", "fraction", ratioOr0(float64(sb.childDur+ob.childDur), sb.slots+ob.slots))

	// Codec kernels. Bytes moved are computed as bytes read plus bytes
	// written, not measured.
	copyBPS := host.CopyGBps * 1e9
	for _, k := range kernels {
		enc, dec := get(k+".encode"), get(k+".decode")
		res.set(k+".encode_mbps", "MB/s", mbps(enc.in, enc.dur))
		res.set(k+".decode_mbps", "MB/s", mbps(dec.out, dec.dur))
		res.set(k+".calls", "calls/seal", ratioOr0(float64(enc.n+dec.n), float64(seals)))
		res.set(k+".encode_bw_frac", "fraction", ratioOr0(ratioOr0(enc.in+enc.out, enc.dur.Seconds()), copyBPS))
		res.set(k+".decode_bw_frac", "fraction", ratioOr0(ratioOr0(dec.in+dec.out, dec.dur.Seconds()), copyBPS))
	}

	// container, archive, metrics.
	cw, cr := get("container.write"), get("container.read")
	res.set("container.write_mbps", "MB/s", mbps(cw.out, cw.dur))
	res.set("container.read_mbps", "MB/s", mbps(cr.in, cr.dur))
	res.set("container.assemble_ms", "ms", ratioOr0(ms(sb.tail), float64(sb.tailN)))
	res.set("archive.write_ms", "ms/field", ratioOr0(ms(get("archive.write").dur), float64(seals)))
	res.set("archive.open_ms", "ms/field", ratioOr0(ms(get("archive.open").dur), float64(opens)))
	ps := get("metrics.psnr")
	res.set("metrics.psnr_mbps", "MB/s", mbps(ps.in, ps.dur))

	// The trace itself and the host.
	res.set("trace.coverage_frac", "fraction", ratioOr0(float64(opCovered), float64(opDur)))
	res.set("trace.overhead_frac", "fraction", ratioOr0(float64(s.tracedSeal), float64(s.pubSeal))-1)
	res.set("host.copy_gbps", "GB/s", host.CopyGBps)
}
