package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

func smallRun(t *testing.T, name string, trace bool, hook func([]byte) []byte) *result {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	res, err := runWorkload(context.Background(), w, options{workload: name, seed: 5, trace: trace, small: true, out: t.TempDir()}, hook)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunsReportExactlyTheDeclaredMetrics runs every workload on small
// inputs, untraced and traced, and checks each run verifies clean and
// reports exactly the metrics BENCHMARK.json declares, with their units.
func TestRunsReportExactlyTheDeclaredMetrics(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); len(got) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			res := smallRun(t, name, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", name, trace, res.Attempted, res.Failed, res.report)
			}
			declared := b.EndToEnd
			if trace {
				declared = b.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
			if trace && res.Metrics["trace.coverage_frac"].Value < 0.9 {
				t.Errorf("%s: trace coverage %v below 0.9", name, res.Metrics["trace.coverage_frac"].Value)
			}
		}
	}
}

// TestCorruptionCountsAsFailure flips a payload byte of every sealed
// container, and truncates every archive: the opens must fail, count in
// failed, and the run must carry on to the end.
func TestCorruptionCountsAsFailure(t *testing.T) {
	flip := func(b []byte) []byte {
		b[len(b)-1] ^= 0x40 // the payload is the end of a container
		return b
	}
	truncate := func(b []byte) []byte { return b[:len(b)-9] }
	for _, c := range []struct {
		workload string
		hook     func([]byte) []byte
	}{
		{"ratio-series", flip},
		{"auto-archive", truncate},
	} {
		res := smallRun(t, c.workload, false, c.hook)
		if res.Failed == 0 || res.Correct {
			t.Errorf("%s: corrupted bytes gave failed %d, correct %v", c.workload, res.Failed, res.Correct)
		}
		if res.Failed >= res.Attempted {
			t.Errorf("%s: every op failed (%d of %d); the seals should still succeed", c.workload, res.Failed, res.Attempted)
		}
		if ok := res.Metrics["ok_frac"].Value; ok >= 1 || ok <= 0 {
			t.Errorf("%s: ok_frac %v", c.workload, ok)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([5,1,3,2,9,8,7,4,6,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{5, 1, 3, 2, 9, 8, 7, 4, 6, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{4, 1, 3, 2})
	if q1 != 1.25 || q2 != 2.5 || q3 != 3.75 {
		t.Errorf("quartiles = %v %v %v, want 1.25 2.5 3.75", q1, q2, q3)
	}
}
