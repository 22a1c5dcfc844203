// Command wdcperf is the repository's benchmark: four timed workloads over
// the simulator and the served engine, every end-to-end metric printed by
// name with its unit, and a non-zero exit when any correctness check fails.
//
// Usage (from the bench directory):
//
//	go run ./cmd/wdcperf -seed 1                    # timed run, all workloads
//	go run ./cmd/wdcperf -seed 1 -trace DIR         # traced run: per-layer metrics, spans and profiles in DIR
//	go run ./cmd/wdcperf -workload des-city -seconds 20 -json out.json
//
// The last line of standard output is a one-line JSON summary of the last
// workload run: its end-to-end metrics, or its per-layer metrics when traced.
// run.sh wraps this command for harnesses that build from a clean checkout.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wdcperf:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "all", "workload to run: all, "+strings.Join(bench.Workloads, ", "))
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "measured seconds per workload leg")
	traceDir := flag.String("trace", "", "traced run: write spans and CPU profiles to this directory and print per-layer metrics")
	jsonOut := flag.String("json", "", "also write the full record (machine stamp, metrics with in-run repeats) to this file")
	server := flag.String("server", "", "wdcserved binary for the served workloads (empty builds one)")
	smoke := flag.Bool("smoke", false, "toy scale: every code path in seconds")
	child := flag.String("child", "", "internal: run one DES workload's replications in this process")
	passes := flag.Int("passes", 0, "internal (child): exact pass count; 0 runs passes while -seconds lasts")
	workers := flag.Int("workers", 0, "internal (child): lane workers; 0 means NumCPU")
	profile := flag.String("profile", "", "internal (child): write a CPU profile here")
	flag.Parse()

	if *child != "" {
		return bench.RunDESChild(bench.ChildArgs{Workload: *child, Seed: *seed, Seconds: *seconds,
			Passes: *passes, Workers: *workers, Profile: *profile, Smoke: *smoke}, os.Stdout)
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	names := bench.Workloads
	if *workload != "all" {
		names = strings.Split(*workload, ",")
	}

	self, err := os.Executable()
	if err != nil {
		return err
	}
	opts := &bench.Options{Seed: *seed, Seconds: *seconds, TraceDir: *traceDir, Smoke: *smoke,
		Self: self, Server: *server}
	if opts.Server == "" && needsServer(names) {
		dir, err := os.MkdirTemp("", "wdcperf")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if opts.Server, err = bench.BuildServer(dir); err != nil {
			return err
		}
	}

	rec := &bench.Record{Machine: bench.ThisMachine(), Seed: *seed, Seconds: *seconds, Traced: *traceDir != ""}
	rec.PrintHeader(os.Stdout)
	correct := true
	var last []byte
	for _, name := range names {
		res, err := bench.Run(name, opts)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		rec.Results = append(rec.Results, *res)
		correct = correct && res.Correct()
		if last, err = res.ResultLine(rec.Traced); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		if err := rec.WriteJSON(*jsonOut); err != nil {
			return err
		}
	}
	fmt.Println(string(last))
	if !correct {
		return errors.New("correctness checks failed")
	}
	return nil
}

func needsServer(names []string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, "served-") {
			return true
		}
	}
	return false
}
