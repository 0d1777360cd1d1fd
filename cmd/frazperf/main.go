// Command frazperf is a load generator for frazd: it drives a running
// instance with concurrent compress requests over real HTTP and reports
// service-level throughput and latency percentiles.
//
//	frazperf -loadgen http://localhost:8080 -clients 8 -requests 256
//
// The uploads are synthetic SDRBench-proxy fields cycled across time steps,
// so the server sees a realistic mix of repeated and fresh data (the repeats
// exercise its shared evaluation cache). The repository's seal/open
// benchmark is sealbench (sealbench/run.sh), not this program.
package main

import (
	"flag"
	"fmt"
	"os"

	"fraz/internal/dataset"
)

const usage = "usage: frazperf -loadgen <url> [-clients n] [-requests n] [-timesteps n] [-target ratio] [-dataset name] [-field name] [-scale tiny|small|medium]"

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("frazperf", flag.ContinueOnError)
	var (
		loadgen   = fs.String("loadgen", "", "base URL of the frazd instance to drive (required)")
		clients   = fs.Int("clients", 4, "concurrent uploaders")
		requests  = fs.Int("requests", 64, "total requests across all clients")
		timesteps = fs.Int("timesteps", 4, "distinct field versions cycled through")
		ratio     = fs.Float64("target", 10, "requested compression ratio")
		app       = fs.String("dataset", "Hurricane", "synthetic dataset to upload")
		field     = fs.String("field", "CLOUDf", "field of the dataset")
		scale     = fs.String("scale", "small", "field resolution: tiny, small, or medium")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *loadgen == "" {
		fmt.Fprintln(os.Stderr, usage)
		return 2
	}
	sc, err := parseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "frazperf:", err)
		return 2
	}

	rep, err := runLoadgen(LoadgenConfig{
		URL:       *loadgen,
		Clients:   *clients,
		Requests:  *requests,
		Dataset:   *app,
		Field:     *field,
		Scale:     sc,
		Target:    *ratio,
		Timesteps: *timesteps,
	}, func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "frazperf:", err)
		return 1
	}
	printLoadReport(os.Stdout, rep)
	if rep.Requests == 0 {
		fmt.Fprintln(os.Stderr, "frazperf: no request succeeded")
		return 1
	}
	return 0
}

func parseScale(s string) (dataset.Scale, error) {
	switch s {
	case "tiny":
		return dataset.ScaleTiny, nil
	case "small":
		return dataset.ScaleSmall, nil
	case "medium":
		return dataset.ScaleMedium, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want tiny, small, or medium)", s)
	}
}
