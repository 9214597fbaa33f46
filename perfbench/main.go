// Command perfbench is the end-to-end benchmark of the Remus reproduction:
// foreground OLTP (ycsb), live migration under load (migrate) and the
// durable stack (durable). It drives the cluster only through its public
// packages, checks every output against its own model, and prints one JSON
// result line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"ycsb":    runYCSB,
	"migrate": runMigrate,
	"durable": runDurable,
}

func main() {
	name := flag.String("workload", "", "workload to run: ycsb, migrate or durable")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for on-disk state and the span file")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	metrics := rep.metrics(cfg.trace)
	for _, e := range rep.errors {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", *name, e)
	}
	if cfg.trace {
		path, err := rep.spans.writeFile(cfg.workdir, *name, cfg.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	out := result{
		Correct:   len(rep.errors) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   metrics,
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, GOMAXPROCS %d, %d attempted, %d failed\n",
		*name, cfg.seed, runtime.GOMAXPROCS(0), out.Attempted, out.Failed)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
