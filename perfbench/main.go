// Command perfbench is the repository's end-to-end benchmark. It boots
// an in-process shark-server (4 workers x 2 slots, Spark profile),
// generates its tables from a seed, drives one workload through
// database/sql and the shark driver, checks every result against a
// reference answer computed from the generated rows, and prints every
// metric by name with its unit. The last line of standard output is a
// JSON object with the fields correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload olap_cached --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the same workload runs with the benchmark's spans and
// counter snapshots around every call into a layer, and the per-layer
// metrics are reported instead of the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workloads maps a workload name to its constructor.
var workloads = map[string]newBench{
	"olap_cached":  newOlap,
	"serve_mixed":  newServe,
	"ingest_spill": newIngest,
}

// runConfig is what every workload runner gets from the command line.
type runConfig struct {
	seed    int64
	measure time.Duration
	traced  bool
	dir     string // scratch space for DFS and spill files
}

func main() {
	workload := flag.String("workload", "", "olap_cached, serve_mixed or ingest_spill")
	seed := flag.Int64("seed", 1, "seed for data, parameters, query order and write schedule")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	ctor, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir := filepath.Join(cwd, ".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	rep, err := runNamed(&runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		dir:     dir,
	}, ctor)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout, *workload)
	line, err := json.Marshal(rep.result(*trace == 1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
