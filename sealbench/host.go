package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// hostRecord describes the machine a traced run measured on.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	L3         string `json:"l3"`
	// CopyGBps is the copy bandwidth, bytes read plus bytes written per
	// second, measured with copy() on a buffer larger than L3; it is the
	// reference the kernels' bandwidth shares are taken against.
	CopyGBps  float64 `json:"copy_gbps"`
	CopyBytes int     `json:"copy_bytes"`
}

func (h hostRecord) String() string {
	return fmt.Sprintf("host: nproc %d, GOMAXPROCS %d, %s, L3 %s, copy %.2f GB/s on %d MiB",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.L3, h.CopyGBps, h.CopyBytes>>20)
}

// copyProbeBytes sizes the copy-bandwidth probe: 256 MiB, 2.4x the 105 MiB
// L3 of the host the benchmark was sized on, so the copy streams from
// memory.
const copyProbeBytes = 256 << 20

// readHost records the host and measures its copy bandwidth; small uses a
// 1 MiB probe, for tests.
func readHost(small bool) hostRecord {
	n := copyProbeBytes
	if small {
		n = 1 << 20
	}
	return hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		L3:         l3Size(),
		CopyGBps:   copyGBps(n),
		CopyBytes:  n,
	}
}

// l3Size reads the level-3 cache size of CPU 0 from sysfs, or "unknown".
func l3Size() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, dir := range dirs {
		level, err := os.ReadFile(filepath.Join(dir, "level"))
		if err != nil || strings.TrimSpace(string(level)) != "3" {
			continue
		}
		if size, err := os.ReadFile(filepath.Join(dir, "size")); err == nil {
			return strings.TrimSpace(string(size))
		}
	}
	return "unknown"
}

// copyGBps times five copies of an n-byte buffer after one untimed copy and
// returns the median rate.
func copyGBps(n int) float64 {
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, n)
	copy(dst, src)
	var rates []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		copy(dst, src)
		rates = append(rates, 2*float64(n)/time.Since(start).Seconds()/1e9)
	}
	return median(rates)
}
