// Command stackbench is the repo's benchmark: one run of one workload,
// printing every metric by name and, as the last line of standard output, the
// result object BENCHMARK.json describes. With -agree it instead runs itself
// repeatedly and checks that the runs agree within BENCHMARK.json's bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/benchmarks/bench"
)

func main() {
	var o bench.Options
	trace := flag.Int("trace", 0, "1 runs the traced layer ladder and prints the per-layer metrics; 0 prints the end-to-end metrics")
	flag.StringVar(&o.Workload, "workload", "", fmt.Sprintf("one of %v", bench.Workloads))
	flag.Uint64Var(&o.Seed, "seed", 42, "request and evaluation inputs are generated from this seed (42 to develop against, 7 held out)")
	flag.Float64Var(&o.Seconds, "seconds", 22, "length of the measured phase")
	flag.BoolVar(&o.Smoke, "smoke", false, "one tiny segment: checks the harness, measures nothing")
	flag.StringVar(&o.OutDir, "out", "benchmarks/out", "directory for scratch checkpoints and the span file")
	agree := flag.Int("agree", 0, "run N runs per set of every workload (or -workload) with seeds seed..seed+N-1 and check the sets against BENCHMARK.json's bounds")
	sets := flag.Int("sets", 2, "sets of runs for -agree")
	spec := flag.String("spec", "BENCHMARK.json", "the benchmark contract -agree reads bounds from")
	flag.Parse()
	o.Trace = *trace != 0
	o.Log = os.Stderr

	if *agree > 0 {
		if err := runAgree(o, *agree, *sets, *spec); err != nil {
			fmt.Fprintln(os.Stderr, "stackbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := bench.Run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		os.Exit(1)
	}
	bench.PrintMetrics(os.Stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func runAgree(o bench.Options, runs, sets int, specPath string) error {
	spec, err := bench.LoadSpec(specPath)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	workloads := bench.Workloads
	if o.Workload != "" {
		workloads = []string{o.Workload}
	}
	return bench.Agree(bench.AgreeOptions{
		Exe: exe, Spec: spec, Workloads: workloads, Sets: sets, Runs: runs,
		FirstSeed: o.Seed, Seconds: spec.RunSeconds, OutDir: o.OutDir,
		Out: os.Stdout, Log: os.Stderr,
	})
}
