// Command perfbench is the repository's end-to-end benchmark. It runs
// the executed two-job ER workflow (BDM job, then the load-balanced
// match job) at paper scale on one workload per invocation, in a
// closed loop with one job in flight, and checks every job's output
// against the serial reference.
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// alternates untraced and traced jobs and reports per-layer metrics,
// self times, ledger reconciliation and tracing overhead. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// The lines before it carry the run's provenance, input descriptors and
// detail. Run it from the repository root through perfbench/run.sh,
// which builds it:
//
//	bash perfbench/run.sh --workload ds1-blocksplit-mem --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "input generator seed")
		seconds = flag.Float64("seconds", 20, "how long the timed loop runs")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(context.Background(), runConfig{
		w:       w,
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		scale:   w.scale,
		dir:     ".bench_build/perfbench",
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printReport(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// printReport writes the detail line, then the result line last.
func printReport(rep *report) error {
	detail, err := json.Marshal(map[string]any{"report": rep.detail})
	if err != nil {
		return err
	}
	metrics := make(map[string]any, len(rep.metrics))
	for _, m := range rep.metrics {
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	result, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(detail))
	fmt.Println(string(result))
	return nil
}
