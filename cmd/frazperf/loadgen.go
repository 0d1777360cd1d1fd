package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"fraz/internal/dataset"
)

// LoadgenConfig shapes one load run.
type LoadgenConfig struct {
	URL       string // base URL of the frazd instance, e.g. http://localhost:8080
	Clients   int    // concurrent uploaders
	Requests  int    // total requests across all clients
	Dataset   string
	Field     string
	Scale     dataset.Scale
	Target    float64 // requested compression ratio
	Timesteps int     // distinct field versions cycled through
}

// LoadReport is the run's aggregate outcome.
type LoadReport struct {
	Requests           int           // completed 2xx requests
	Errors             int           // transport failures, truncated bodies, non-2xx answers
	Rejected           int           // the 429/503 slice of Errors (backpressure, not faults)
	Wall               time.Duration // wall time for the whole run
	FieldBytes         int64         // raw bytes uploaded by successful requests
	SealedBytes        int64         // archive bytes received
	P50, P90, P99, Max time.Duration
}

func (r LoadReport) throughput() (reqPerSec, fieldMBps, sealedMBps float64) {
	s := r.Wall.Seconds()
	if s <= 0 {
		return 0, 0, 0
	}
	return float64(r.Requests) / s,
		float64(r.FieldBytes) / s / (1 << 20),
		float64(r.SealedBytes) / s / (1 << 20)
}

// loadBodies materializes Timesteps versions of the field as raw
// little-endian uploads.
func loadBodies(cfg LoadgenConfig) (bodies [][]byte, shape string, err error) {
	d, err := dataset.New(cfg.Dataset, cfg.Scale)
	if err != nil {
		return nil, "", err
	}
	for ts := 0; ts < cfg.Timesteps; ts++ {
		f32, dims, err := d.Generate(cfg.Field, ts)
		if err != nil {
			return nil, "", err
		}
		raw := make([]byte, len(f32)*4)
		for i, v := range f32 {
			binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(v))
		}
		bodies = append(bodies, raw)
		shape = dims.String()
	}
	return bodies, shape, nil
}

func runLoadgen(cfg LoadgenConfig, logf func(format string, args ...interface{})) (LoadReport, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 64
	}
	if cfg.Timesteps <= 0 {
		cfg.Timesteps = 4
	}
	if cfg.Target <= 0 {
		cfg.Target = 10
	}
	bodies, shape, err := loadBodies(cfg)
	if err != nil {
		return LoadReport{}, err
	}
	logf("loadgen: %d requests, %d clients, field %s/%s %s (%d bytes), %d timesteps, target ratio %g",
		cfg.Requests, cfg.Clients, cfg.Dataset, cfg.Field, shape, len(bodies[0]), cfg.Timesteps, cfg.Target)

	client := &http.Client{}
	target := strconv.FormatFloat(cfg.Target, 'g', -1, 64)

	var (
		mu        sync.Mutex
		latencies []time.Duration
		rep       LoadReport
	)
	// next hands out request indices; the index picks the timestep, so the
	// request mix is deterministic regardless of scheduling.
	next := make(chan int, cfg.Requests)
	for i := 0; i < cfg.Requests; i++ {
		next <- i
	}
	close(next)

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				body := bodies[i%len(bodies)]
				req, err := http.NewRequest(http.MethodPost, cfg.URL+"/v1/compress", bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					rep.Errors++
					mu.Unlock()
					continue
				}
				req.Header.Set("X-Fraz-Shape", shape)
				req.Header.Set("X-Fraz-Target", target)
				t0 := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					mu.Lock()
					rep.Errors++
					mu.Unlock()
					continue
				}
				// frazd streams the archive after the 200 headers, so a seal
				// that fails mid-stream shows up only as a short body.
				sealed, readErr := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lat := time.Since(t0)

				mu.Lock()
				switch {
				case readErr != nil:
					rep.Errors++
				case resp.StatusCode == http.StatusOK:
					rep.Requests++
					rep.FieldBytes += int64(len(body))
					rep.SealedBytes += sealed
					latencies = append(latencies, lat)
				case resp.StatusCode == http.StatusTooManyRequests ||
					resp.StatusCode == http.StatusServiceUnavailable:
					rep.Errors++
					rep.Rejected++
				default:
					rep.Errors++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rep.Wall = time.Since(start)

	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		rep.P50 = percentile(latencies, 50)
		rep.P90 = percentile(latencies, 90)
		rep.P99 = percentile(latencies, 99)
		rep.Max = latencies[len(latencies)-1]
	}
	return rep, nil
}

// percentile reads the p-th percentile from an ascending-sorted slice using
// the nearest-rank method.
func percentile(sorted []time.Duration, p int) time.Duration {
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func printLoadReport(w io.Writer, rep LoadReport) {
	reqPerSec, fieldMBps, sealedMBps := rep.throughput()
	fmt.Fprintf(w, "requests     %d ok, %d failed (%d backpressure) in %v\n",
		rep.Requests, rep.Errors, rep.Rejected, rep.Wall.Round(time.Millisecond))
	fmt.Fprintf(w, "throughput   %.1f req/s, %.1f MiB/s fields in, %.2f MiB/s archives out\n",
		reqPerSec, fieldMBps, sealedMBps)
	fmt.Fprintf(w, "latency      p50 %v  p90 %v  p99 %v  max %v\n",
		rep.P50.Round(time.Microsecond), rep.P90.Round(time.Microsecond),
		rep.P99.Round(time.Microsecond), rep.Max.Round(time.Microsecond))
}
