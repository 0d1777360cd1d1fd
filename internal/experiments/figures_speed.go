package experiments

import (
	"fmt"
	"time"

	"fraz/internal/container"
	"fraz/internal/dataset"
	"fraz/internal/pressio"
	"fraz/internal/report"
)

// Speed compares the codec tiers' raw seal/open throughput at the paper's
// 10^-3 relative operating point: the prediction-and-entropy-coding tier
// (sz:abs), the transform tier (zfp:accuracy), and the SZx-style ultra-fast
// tier (szx:abs), at both element widths. It is the table behind the "when
// does szx pay" guidance in the README: szx trades ~5-8x worse ratio for
// 1-2 orders of magnitude more throughput, which is the right trade exactly
// when the pipeline is ingest-bound rather than capacity-bound (cf. SZx,
// Yu et al., and the FZ-GPU/cuSZp line of work).
func Speed(cfg Config) (*report.Table, error) {
	d, err := dataset.New("Hurricane", cfg.Scale)
	if err != nil {
		return nil, err
	}
	data32, shape, err := d.Generate("CLOUDf", 0)
	if err != nil {
		return nil, err
	}
	buf32, err := pressio.NewBuffer(data32, shape)
	if err != nil {
		return nil, err
	}
	data64, _, err := d.Generate64("CLOUDf", 0)
	if err != nil {
		return nil, err
	}
	buf64, err := pressio.NewBufferOf(data64, shape)
	if err != nil {
		return nil, err
	}

	codecs := []string{"szx:abs", "sz:abs", "zfp:accuracy"}
	reps := 5
	if cfg.Quick {
		reps = 2
	}

	tab := report.NewTable("Codec tier throughput at the 1e-3 relative bound (Hurricane/CLOUDf)",
		"codec", "dtype", "seal_MBps", "open_MBps", "ratio", "seal_speedup_vs_sz")

	type row struct {
		codec, dtype       string
		sealMBps, openMBps float64
		ratio              float64
	}
	var rows []row
	for _, dc := range []struct {
		name string
		buf  pressio.Buffer
	}{{"float32", buf32}, {"float64", buf64}} {
		for _, name := range codecs {
			comp := mustCompressor(name)
			bound := dc.buf.ValueRange() * 1e-3
			mb := float64(dc.buf.Bytes()) / 1e6

			var sealT, openT time.Duration
			var ratio float64
			for i := 0; i < reps; i++ {
				s, o, r, err := timeSealOpen(1, func() (container.Container, error) {
					return pressio.Seal(comp, dc.buf, bound)
				})
				if err != nil {
					return nil, fmt.Errorf("speed %s/%s: %w", name, dc.name, err)
				}
				sealT += s
				openT += o
				ratio = r
			}
			rows = append(rows, row{
				codec: name, dtype: dc.name,
				sealMBps: mbps(mb*float64(reps), sealT),
				openMBps: mbps(mb*float64(reps), openT),
				ratio:    ratio,
			})
		}
	}

	szSeal := map[string]float64{}
	for _, r := range rows {
		if r.codec == "sz:abs" {
			szSeal[r.dtype] = r.sealMBps
		}
	}
	for _, r := range rows {
		speedup := 0.0
		if s := szSeal[r.dtype]; s > 0 {
			speedup = round2(r.sealMBps / s)
		}
		tab.AddRow(r.codec, r.dtype, r.sealMBps, r.openMBps, round2(r.ratio), speedup)
	}
	tab.AddNote("each cell averages %d monolithic seal/open repetitions at bound = 1e-3 x value range", reps)
	tab.AddNote("szx trades compression ratio for throughput; sealbench measures seal/open on the public path")
	return tab, nil
}
