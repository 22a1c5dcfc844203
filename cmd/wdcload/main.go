// Command wdcload is the wall-clock load harness CLI: it sweeps simulated
// client fleets across invalidation algorithms against a real wdcserved
// process (spawned binary or in-process server) over actual UDP and TCP
// sockets, prints answer-latency quantiles and throughput per point, and
// exits non-zero if any point served a stale answer.
//
// Usage:
//
//	wdcload -algos ts,hybrid -fleets 100,1000
//	wdcload -bin ./wdcserved -algos all -fleets 1000
//
// Each point runs the full client protocol: Zipf queries with exponential
// think times, doze periods followed by catch-up exchanges, piggybacked
// digests, broadcast report processing, and an online staleness sweep after
// every action. See internal/loadgen for the determinism contract.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/loadgen"
	"repro/internal/obs"
)

func main() {
	algosFlag := flag.String("algos", "all", "comma-separated algorithms, or 'all': "+strings.Join(ir.Names, ", "))
	fleetsFlag := flag.String("fleets", "100,1000", "comma-separated fleet sizes (clients per point)")
	bin := flag.String("bin", "", "wdcserved binary to spawn per point (empty: in-process server)")
	seed := flag.Uint64("seed", 1, "master seed for every harness stream")
	steps := flag.Int("steps", 20, "actions per client")
	rate := flag.Float64("rate", 20, "mean actions per second per client")
	doze := flag.Float64("doze", 0.4, "mean doze length (s)")
	injects := flag.Int("injects", 50, "database updates injected per point")
	signals := flag.Int("signals", 10, "environment-signal pushes per point")
	items := flag.Int("items", 128, "database items")
	debugAddr := flag.String("debug-addr", "", "serve /debug/load and /debug/pprof on this address during the sweep")
	flag.Parse()

	algos := ir.Names
	if *algosFlag != "all" {
		algos = strings.Split(*algosFlag, ",")
		for _, a := range algos {
			ok := false
			for _, n := range ir.Names {
				ok = ok || a == n
			}
			if !ok {
				fatal(fmt.Errorf("unknown algorithm %q", a))
			}
		}
	}
	var fleets []int
	for _, f := range strings.Split(*fleetsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			fatal(fmt.Errorf("bad fleet size %q", f))
		}
		fleets = append(fleets, n)
	}

	mon := &obs.LoadMonitor{}
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/debug/load", mon)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		go func() {
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "wdcload: debug server:", err)
			}
		}()
		fmt.Printf("wdcload: live snapshot at http://%s/debug/load\n", *debugAddr)
	}

	for _, clients := range fleets {
		for _, algo := range algos {
			cfg := loadgen.DefaultConfig(algo, clients)
			cfg.Seed = *seed
			cfg.Steps = *steps
			cfg.Rate = *rate
			cfg.DozeMeanSec = *doze
			cfg.Injects = *injects
			cfg.Signals = *signals
			cfg.NumItems = *items
			cfg.Bin = *bin
			cfg.Monitor = mon
			// Run fails on any stale answer, so every printed point had none.
			res, err := loadgen.Run(cfg)
			if err != nil {
				fatal(fmt.Errorf("point %s@%d: %w", algo, clients, err))
			}
			fmt.Printf("wdcload: %-12s %6d queries, %7.0f q/s, p50 %6.2fms p99 %6.2fms, %d retries, %d drops, queue max %d (%.1fs wall)\n",
				fmt.Sprintf("%s@%d", res.Algo, res.Clients), res.Counts.Queries, res.QPS(),
				res.Latency.Quantile(0.50)*1e3, res.Latency.Quantile(0.99)*1e3,
				res.Retries, res.Drops, res.QueueMax, res.Elapsed.Seconds())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wdcload:", err)
	os.Exit(1)
}
