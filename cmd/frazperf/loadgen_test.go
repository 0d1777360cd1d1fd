package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fraz/internal/dataset"
	"fraz/internal/server"
)

func discardLogf(string, ...interface{}) {}

func TestLoadgenAgainstService(t *testing.T) {
	// Enough per-tenant headroom that all clients (one shared anonymous
	// tenant) are admitted; backpressure behavior has its own test below.
	ts := httptest.NewServer(server.New(server.Config{
		Concurrency: 4, QueueDepth: 16, PerTenant: 16,
	}).Handler())
	defer ts.Close()

	rep, err := runLoadgen(LoadgenConfig{
		URL:       ts.URL,
		Clients:   3,
		Requests:  9,
		Dataset:   "Hurricane",
		Field:     "CLOUDf",
		Scale:     dataset.ScaleTiny,
		Target:    10,
		Timesteps: 2,
	}, discardLogf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 9 || rep.Errors != 0 {
		t.Fatalf("report: %d ok, %d failed, want 9/0", rep.Requests, rep.Errors)
	}
	if rep.SealedBytes <= 0 || rep.FieldBytes <= 0 {
		t.Fatalf("byte counters: fields %d, sealed %d", rep.FieldBytes, rep.SealedBytes)
	}
	if rep.SealedBytes >= rep.FieldBytes {
		t.Fatalf("archives (%d) not smaller than fields (%d)", rep.SealedBytes, rep.FieldBytes)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 || rep.Max < rep.P99 {
		t.Fatalf("percentiles out of order: p50 %v p99 %v max %v", rep.P50, rep.P99, rep.Max)
	}

	var buf bytes.Buffer
	printLoadReport(&buf, rep)
	out := buf.String()
	for _, want := range []string{"9 ok", "req/s", "p50", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report output missing %q:\n%s", want, out)
		}
	}
}

// TestLoadgenCountsBackpressure points the generator at a saturated,
// draining server and checks rejections are classified, not miscounted as
// transport faults.
func TestLoadgenCountsBackpressure(t *testing.T) {
	s := server.New(server.Config{})
	s.BeginDrain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep, err := runLoadgen(LoadgenConfig{
		URL:       ts.URL,
		Clients:   2,
		Requests:  4,
		Dataset:   "Hurricane",
		Field:     "CLOUDf",
		Scale:     dataset.ScaleTiny,
		Timesteps: 1,
	}, discardLogf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 0 || rep.Rejected != 4 || rep.Errors != 4 {
		t.Fatalf("report: %+v, want 0 ok / 4 rejected", rep)
	}
}

// TestLoadgenCountsTruncatedArchive serves a 200 whose body breaks off
// before its declared Content-Length. frazd streams the archive after the
// headers are sent, so this is how a seal that fails mid-stream reaches the
// client: it must count as a failure, not as a success with a short archive.
func TestLoadgenCountsTruncatedArchive(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Length", "1024")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(make([]byte, 100))
	}))
	defer ts.Close()

	rep, err := runLoadgen(LoadgenConfig{
		URL:       ts.URL,
		Clients:   2,
		Requests:  4,
		Dataset:   "Hurricane",
		Field:     "CLOUDf",
		Scale:     dataset.ScaleTiny,
		Timesteps: 1,
	}, discardLogf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 0 || rep.Errors != 4 || rep.Rejected != 0 {
		t.Fatalf("report: %d ok, %d failed (%d backpressure), want 0/4/0", rep.Requests, rep.Errors, rep.Rejected)
	}
	if rep.FieldBytes != 0 || rep.SealedBytes != 0 || rep.P50 != 0 || rep.Max != 0 {
		t.Fatalf("truncated answers leaked into the success counters: %+v", rep)
	}
}

func TestPercentile(t *testing.T) {
	sorted := make([]time.Duration, 10)
	for i := range sorted {
		sorted[i] = time.Duration(i + 1)
	}
	cases := []struct {
		p    int
		want time.Duration
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}}
	for _, c := range cases {
		if got := percentile(sorted, c.p); got != c.want {
			t.Fatalf("percentile(%d) = %d, want %d", c.p, got, c.want)
		}
	}
}

// TestRequiresLoadgen pins the command-line contract: load generation is
// the program's only mode, so running it without -loadgen is a usage error.
func TestRequiresLoadgen(t *testing.T) {
	for _, args := range [][]string{nil, {"-clients", "2"}, {"-quick"}} {
		if got := realMain(args); got != 2 {
			t.Errorf("realMain(%q) = %d, want 2", args, got)
		}
	}
}
