// Command sealbench is the repository's seal/open benchmark. It drives the
// public fraz API (Client.Compress, Client.DecompressFull, Dataset) from one
// process on generated inputs, verifies every output, and prints the
// end-to-end metrics listed in BENCHMARK.json as one JSON object on the last
// line of standard output. A second mode (--trace 1) replays the same calls
// through the internal layers with timing spans around each layer entry and
// prints the per-layer metrics instead.
//
// Run it from the repository root:
//
//	bash sealbench/run.sh --workload ratio-series --seed 1 --seconds 30 --trace 0
//	bash sealbench/run.sh --workload auto-archive --seed 1 --seconds 30 --spread 10
//
// Workloads (see workloads.go for the inputs and ops of each):
//   - ratio-series: sz:abs at Ratio(10) over the time steps of five medium
//     Hurricane fields, the paper's time-step loop with bound reuse.
//   - auto-archive: CodecAuto at Ratio(10) sealing seven fields of one
//     medium Hurricane snapshot into an in-memory .frazd archive, the codec
//     race, then reading the archive back.
//
// Design choices, each made so that two sets of runs of the same code agree:
//
//   - Throughputs are the bytes of one pass over every input divided by the
//     sum, over inputs, of each input's median call time, and a run
//     measures whole cycles of passes, so every run covers every input
//     equally and one slow call cannot move the result. One untimed
//     warm-up pass primes the pools before timing starts, and set-up is
//     repeated three times with the median reported.
//   - Runs with different seeds must agree too, so a seed changes inputs
//     only in ways that keep the work alike: ratio-series takes from it the
//     window a run starts with. The auto race's work changes with the
//     snapshot and even with the order fields are added in, so auto-archive
//     seals the same inputs whatever the seed.
//   - Both workloads pin Workers(1). With two workers the region search's
//     cancellation depends on the scheduler, and one TCf seal took 53, 54
//     or 55 evaluations in three runs; with one worker it took 22 every
//     time. Workers(1) is also the single-threaded baseline. Raise the
//     worker count once the region search is deterministic at any worker
//     count.
//   - There is no workload on a field larger than the cache. A third
//     workload sealed one 256 MiB field (2.4x the 105 MiB L3 of the host the
//     benchmark was sized on; 512 MiB had read 433-604 MB/s frsz seal at a
//     3.2 GB peak RSS) with frsz:rate and szx:abs on two workers. Its
//     throughput spread too far between runs to hold any bound: in three
//     sets of runs seal_mbps spread by 13%, 22% and 9% (quartile distance
//     over median) and open_mbps by 11% to 15%, and pinning one worker left
//     open_mbps at 15%. The traced run still measures host copy bandwidth on
//     a 256 MiB buffer.
//   - What remains is the host's own drift, which no run length here
//     averages away: on the 2-vCPU guest the benchmark was built on, the
//     same seal ran 30% faster for a minute at a time, and across ten runs
//     of the same code seal_mbps, open_mbps and seal_ms_p50 spread by 10%
//     to 20% (quartile distance over median). BENCHMARK.json's bounds on
//     them are therefore 0.24.
//   - An earlier benchmark attempt was too noisy: its medians moved by up to
//     8% between two sets of runs because it timed single ops, let the
//     search vary with the scheduler, used a 64 MB field that fits in L3,
//     and had a set-up time of 16 ms. Timing medians over many ops in whole
//     cycles and pinning one worker answer the first two; a set-up time of
//     seconds answers the last.
//
// cmd/frazperf and the BENCH_*.json files are separate and untouched by
// this benchmark.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets up its workload; setup_s is the
// median, so one slow repeat does not move it.
const setupRepeats = 3

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sealbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	spread   int
	small    bool // tiny inputs, for tests
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sealbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds; a run ends at the first whole cycle past this")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced replay and prints per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for the span file of a traced run")
	fs.IntVar(&o.spread, "spread", 0, "run the workload this many times, seeds seed, seed+1, ..., and print each metric's quartiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = trace == 1
	w, ok := lookupWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.spread > 0 {
		return spreadReport(o, stdout)
	}
	res, err := runWorkload(context.Background(), w, o, nil)
	if err != nil {
		return err
	}
	return res.print(stdout)
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order  []string // metric names in report order
	report []string // extra human-readable lines printed before the table
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes the human-readable report, then the JSON result as the last
// line.
func (r *result) print(w io.Writer) error {
	for _, line := range r.report {
		fmt.Fprintln(w, line)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// runWorkload sets the workload up (three times, keeping the last), runs
// whole cycles of passes for the requested seconds, and computes the
// metrics of the run's mode. hook, when non-nil, lets tests corrupt the
// sealed bytes before they are opened.
func runWorkload(ctx context.Context, w workload, o options, hook func([]byte) []byte) (*result, error) {
	res := &result{}
	var host hostRecord
	if o.trace {
		host = readHost(o.small)
		res.report = append(res.report, host.String())
		runtime.GC()
		debug.FreeOSMemory()
	}

	var setups []float64
	var b bench
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		b, err = w.setup(o.seed, o.small)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		warm := &opRunner{}
		b.warmup(ctx, warm)
		setups = append(setups, time.Since(start).Seconds())
		if warm.failed > 0 {
			return nil, fmt.Errorf("%s warm-up: %s", w.name, warm.firstFailure)
		}
		if o.trace {
			break // set-up time is an end-to-end metric; a traced run sets up once
		}
	}

	ops := &opRunner{rec: &samples{}, hook: hook}
	if o.trace {
		ops.tr = newTracer()
	}
	runtime.GC()
	start := time.Now()
	passes := 0
	for {
		b.pass(ctx, passes, ops)
		passes++
		if passes%w.cycle == 0 && time.Since(start).Seconds() >= o.seconds {
			break
		}
	}
	res.report = append(res.report, fmt.Sprintf("workload %s seed %d: %d passes in %.1f s", w.name, o.seed, passes, time.Since(start).Seconds()))
	if ops.failed > 0 {
		res.report = append(res.report, "first failure: "+ops.firstFailure)
	}
	res.Attempted = ops.attempted
	res.Failed = ops.failed
	res.Correct = ops.failed == 0
	if o.trace {
		layerMetrics(res, ops.tr, ops.rec, host)
		path := filepath.Join(o.out, fmt.Sprintf("sealbench-trace-%s-%d.json", w.name, o.seed))
		if err := ops.tr.writeFile(path, host); err != nil {
			return nil, err
		}
		res.report = append(res.report, "spans written to "+path)
	} else {
		endToEndMetrics(res, ops.rec, median(setups))
	}
	return res, nil
}

// endToEndMetrics fills the end-to-end metrics of BENCHMARK.json from the
// run's samples.
func endToEndMetrics(res *result, s *samples, setup float64) {
	var sealBytes, alloc float64
	var sealMS, logRatios []float64
	met := 0
	for _, x := range s.seals {
		sealBytes += float64(x.bytes)
		alloc += float64(x.alloc)
		sealMS = append(sealMS, float64(x.dur)/1e6)
		if x.met {
			met++
		}
		if x.ratio > 0 {
			logRatios = append(logRatios, math.Log(x.ratio))
		}
	}
	sealPass, sealTime := s.sealTime.typical()
	openPass, openTime := s.openTime.typical()
	res.set("setup_s", "s", setup)
	res.set("seal_mbps", "MB/s", ratioOr0(sealPass/1e6, sealTime.Seconds()))
	res.set("seal_ms_p50", "ms", median(sealMS))
	res.set("open_mbps", "MB/s", ratioOr0(openPass/1e6, openTime.Seconds()))
	res.set("target_met_frac", "fraction", ratioOr0(float64(met), float64(len(s.seals))))
	res.set("psnr_db", "dB", median(s.psnrs))
	res.set("ratio_gmean", "x", math.Exp(mean(logRatios)))
	res.set("ok_frac", "fraction", ratioOr0(float64(res.Attempted-res.Failed), float64(res.Attempted)))
	res.set("seal_alloc_bpb", "B/B", ratioOr0(alloc, sealBytes))
	res.report = append(res.report,
		fmt.Sprintf("seals %d (p50 %.3f ms, %s), opens %d, failed_frac %.4g",
			len(sealMS), median(sealMS), tailPercentile(sealMS), len(s.psnrs),
			ratioOr0(float64(res.Failed), float64(res.Attempted))))
}

// tailPercentile names the highest percentile of xs that still has at least
// ten samples beyond it.
func tailPercentile(xs []float64) string {
	n := len(xs)
	if n < 20 {
		return fmt.Sprintf("no percentile has 10 seals beyond it at n=%d", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := math.Floor(100 * float64(n-10) / float64(n))
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return fmt.Sprintf("p%.0f %.3f ms", p, s[idx])
}

// spreadReport runs the workload o.spread times as child processes with
// consecutive seeds, then prints each metric's median, quartiles and
// quartile spread as a share of the median: the steadiness evidence.
func spreadReport(o options, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	var names []string
	for i := 0; i < o.spread; i++ {
		args := []string{"--workload", o.workload, "--seed", fmt.Sprint(o.seed + int64(i)),
			"--seconds", fmt.Sprint(o.seconds), "--out", o.out}
		if o.trace {
			args = append(args, "--trace", "1")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		if !r.Correct {
			return fmt.Errorf("run %d (seed %d): %d of %d ops failed", i, o.seed+int64(i), r.Failed, r.Attempted)
		}
		for name, m := range r.Metrics {
			if _, ok := values[name]; !ok {
				names = append(names, name)
			}
			values[name] = append(values[name], m.Value)
		}
		fmt.Fprintf(stdout, "run %d seed %d: %s\n", i, o.seed+int64(i), lines[len(lines)-1])
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-34s %12s %12s %12s %9s\n", "metric", "q1", "median", "q3", "iqr/med")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		fmt.Fprintf(stdout, "%-34s %12.6g %12.6g %12.6g %9.4f\n", name, q1, q2, q3, ratioOr0(q3-q1, math.Abs(q2)))
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is how the spread of a set of runs is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 3 {
		m := median(s)
		return m, m, m
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratioOr0(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
