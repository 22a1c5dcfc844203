package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/topology"
)

// parallelChaosConfig is a multi-cell vehicular run with the whole fault
// layer armed — outages, report destruction, retry pressure, disconnections
// with catch-up recovery — the hardest determinism target for the epoch
// runner: every cross-cell mechanism fires, and every kind of client timer
// exists to be migrated at handoff.
func parallelChaosConfig(seed uint64) Config {
	cfg := multiCellConfig("hybrid", seed)
	cfg.Topology.Policy = topology.Revalidate
	cfg.Fault.QueryTimeout = des.FromSeconds(2)
	cfg.Fault.RetryMax = 4
	cfg.Fault.OutageStart = 20 * des.Second
	cfg.Fault.OutageLen = 10 * des.Second
	cfg.Fault.OutagePeriod = 60 * des.Second
	cfg.Fault.ReportLossProb = 0.15
	cfg.Fault.ReportTruncProb = 0.1
	cfg.Fault.DisconnectRate = 1.0 / 60
	cfg.Fault.DisconnectMeanSec = 25
	cfg.Fault.Recovery = fault.RecoverCatchup
	cfg.Parallel = true
	return cfg
}

// fingerprintParallel covers everything the other fingerprints cover: the
// core statistics, the topology counters, and the fault counters.
func fingerprintParallel(s *Simulation, r *RunStats) string {
	return fingerprintMulti(s, r) + " " + fingerprintFault(r)
}

// TestParallelWorkerInvariance is the tentpole's headline property: a
// parallel run's results are byte-identical for every worker count (including
// the GOMAXPROCS default), rerun-identical, and honor every fault-layer
// invariant.
func TestParallelWorkerInvariance(t *testing.T) {
	for seed := uint64(11); seed < 13; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			var want string
			var wantEpochs uint64
			for _, w := range []int{1, 2, 4, 0} {
				cfg := parallelChaosConfig(seed)
				cfg.ParallelWorkers = w
				sim, r := runMulti(t, cfg)
				if !sim.par {
					t.Fatal("parallel mode did not engage on a multi-cell run")
				}
				if r.Epochs == 0 {
					t.Fatal("no synchronization epochs counted")
				}
				if r.ParallelWorkers < 1 {
					t.Fatalf("ParallelWorkers = %d not recorded", r.ParallelWorkers)
				}
				checkFaultInvariants(t, sim, r)
				if t.Failed() {
					t.Fatalf("invariants violated at workers=%d", w)
				}
				fp := fingerprintParallel(sim, r)
				if want == "" {
					want, wantEpochs = fp, r.Epochs
					continue
				}
				if fp != want {
					t.Fatalf("workers=%d changed results\nwant %s\ngot  %s", w, want, fp)
				}
				if r.Epochs != wantEpochs {
					t.Fatalf("workers=%d ran %d epochs, want %d", w, r.Epochs, wantEpochs)
				}
			}
		})
	}
}

// TestParallelHandoffActivity asserts the invariance test above actually
// exercised the cross-lane machinery: handoffs moved timers between lanes,
// disconnections and recoveries ran, and responses outlived memberships.
// A response outliving its destination's membership is a rare race that any
// one seed may miss, so that path is counted over a fixed seed set.
func TestParallelHandoffActivity(t *testing.T) {
	var departed uint64
	for seed := uint64(11); seed <= 14; seed++ {
		cfg := parallelChaosConfig(seed)
		cfg.ParallelWorkers = 2
		sim, r := runMulti(t, cfg)
		if r.Handoffs == 0 {
			t.Errorf("seed %d: no handoffs in a vehicular parallel run", seed)
		}
		if r.Disconnects == 0 || r.Recoveries == 0 {
			t.Errorf("seed %d: fault layer idle: %d disconnects, %d recoveries", seed, r.Disconnects, r.Recoveries)
		}
		if r.StaleViolations != 0 {
			t.Fatalf("seed %d: %d stale answers", seed, r.StaleViolations)
		}
		departed += sim.mergedLanes().respDeparted
	}
	if departed == 0 {
		t.Error("no response outlived its destination's cell membership on seeds 11-14")
	}
}

// TestParallelSingleCellFallsBackToSerial: the parallel gate must ignore the
// flag for single-cell runs, reproducing the pinned serial goldens exactly.
func TestParallelSingleCellFallsBackToSerial(t *testing.T) {
	g := goldenRuns[0]
	cfg := goldenConfig(g.algo, g.seed)
	cfg.Parallel = true
	cfg.ParallelWorkers = 4
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.ParallelWorkers != 1 || r.Epochs != 0 {
		t.Fatalf("single-cell run engaged parallel mode: workers=%d epochs=%d",
			r.ParallelWorkers, r.Epochs)
	}
	if got := fingerprintStats(r); got != g.want {
		t.Errorf("single-cell run with Parallel set diverged from golden\n got: %s\nwant: %s", got, g.want)
	}
}

// TestParallelPulseAccounting mirrors the serial OnEventPulse contract for
// the epoch runner: the deltas handed to the pulse callback sum to exactly
// the run's global executed-event count, aggregated across every lane.
func TestParallelPulseAccounting(t *testing.T) {
	cfg := parallelChaosConfig(7)
	cfg.ParallelWorkers = 2
	var total uint64
	var calls int
	cfg.OnEventPulse = func(d uint64) {
		if d == 0 {
			t.Error("empty pulse delta")
		}
		total += d
		calls++
	}
	_, r := runMulti(t, cfg)
	if total != r.Events {
		t.Fatalf("pulse deltas sum to %d, run executed %d events", total, r.Events)
	}
	if calls < 2 {
		t.Fatalf("only %d pulses for a %d-event run", calls, r.Events)
	}
}

// TestParallelCancelInterrupts: fail-fast cancellation must reach every lane
// — the context poll runs on each lane's own executed-event cadence, and the
// barrier loop checks errors after every phase — so a cancel mid-run aborts
// promptly with the context's error instead of partial statistics.
func TestParallelCancelInterrupts(t *testing.T) {
	cfg := parallelChaosConfig(9)
	cfg.ParallelWorkers = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := false
	cfg.OnEventPulse = func(uint64) {
		if !fired {
			fired = true
			cancel()
		}
	}
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.ExecuteCtx(ctx)
	if !fired {
		t.Fatal("run finished before the first pulse; cannot exercise cancellation")
	}
	if r != nil || err == nil {
		t.Fatal("cancelled run returned statistics")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParallelTracerForcesSerial: attaching a Tracer assumes the serial
// observation order, so the gate must silently fall back.
func TestParallelTracerForcesSerial(t *testing.T) {
	cfg := parallelChaosConfig(5)
	rec := &faultTraceRecorder{}
	cfg.Tracer = rec
	sim, r := runMulti(t, cfg)
	if sim.par || r.Epochs != 0 {
		t.Fatal("tracer-attached run engaged parallel mode")
	}
	if len(rec.handoffs) == 0 {
		t.Error("tracer saw no handoffs")
	}
}
