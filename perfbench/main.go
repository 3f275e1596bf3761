// Command perfbench is imflow's end-to-end benchmark. It drives a live
// httpd.Server, built with imflow-serve's defaults, on a loopback
// listener from one load-generator process, times every request from its
// due time, checks the answers against an independent oracle, and prints
// the metrics as one JSON object on the last line of standard output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload edge-small --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 is the traced run,
// which wraps the solver and engine and prints the per-layer metrics.
// See README.md for the workloads and how to read the numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: edge-small, solve-large or churn")
	seed := flag.Uint64("seed", 1, "seed of the workload's queries, arrivals and faults")
	seconds := flag.Int("seconds", 30, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fatalf("%v", err)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	b := &bench{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	out, err := b.run()
	if err != nil {
		fatalf("%v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"provenance": out.provenance}); err != nil {
		fatalf("%v", err)
	}
	if out.invalid != nil {
		fatalf("%v", out.invalid)
	}
	if err := enc.Encode(out.result); err != nil {
		fatalf("%v", err)
	}
	if !out.result.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
