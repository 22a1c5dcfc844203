package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/des"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/topology"
)

// TestSingleCellMatchesLegacyGolden proves the componentized core is a pure
// refactor for single-cell runs: both an explicit NumCells=1 topology and the
// zero-value Topology reproduce every pinned pre-refactor fingerprint
// byte for byte.
func TestSingleCellMatchesLegacyGolden(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero-topology", func(c *Config) { c.Topology = topology.Config{} }},
		{"explicit-one-cell", func(c *Config) {
			c.Topology = topology.DefaultConfig()
			c.Topology.NumCells = 1
		}},
	}
	for _, v := range variants {
		for _, g := range goldenRuns {
			t.Run(fmt.Sprintf("%s/%s-%d", v.name, g.algo, g.seed), func(t *testing.T) {
				cfg := goldenConfig(g.algo, g.seed)
				v.mutate(&cfg)
				r, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if r.NumCells != 1 {
					t.Fatalf("NumCells = %d, want 1", r.NumCells)
				}
				if got := fingerprintStats(r); got != g.want {
					t.Errorf("single-cell fingerprint diverged from legacy golden\n got: %s\nwant: %s",
						got, g.want)
				}
			})
		}
	}
}

// multiCellConfig is a 4-cell grid with vehicular speeds: enough motion for
// frequent handoff, enough load that responses sit in downlink queues long
// enough to outlive their destination's cell membership.
func multiCellConfig(algo string, seed uint64) Config {
	cfg := DefaultConfig()
	cfg.NumClients = 24
	cfg.Horizon = 400 * des.Second
	cfg.Warmup = 100 * des.Second
	cfg.Seed = seed
	cfg.Algorithm = algo
	cfg.Workload.SleepRatio = 0.3
	cfg.Workload.AwakeMeanSec = 60
	cfg.SnoopResponses = true
	cfg.CoalesceResponses = true
	cfg.TrafficLoad = 0.5
	cfg.Topology = topology.Config{
		NumCells:     4,
		CellRadiusM:  250,
		MinDistanceM: 20,
		SpeedMinMps:  10,
		SpeedMaxMps:  20,
		PauseMeanSec: 2,
		CheckPeriod:  des.Second,
		Policy:       topology.Drop,
	}
	return cfg
}

// fingerprintMulti extends the golden fingerprint with the topology counters
// so multi-cell determinism checks also cover handoff behaviour.
func fingerprintMulti(s *Simulation, r *RunStats) string {
	return fmt.Sprintf("%s cells=%d hoff=%d flush=%d asleep=%d midq=%d depart=%d",
		fingerprintStats(r), r.NumCells, r.Handoffs, r.HandoffFlushes,
		s.handoffsAsleep, s.handoffsMidQuery, s.mergedLanes().respDeparted)
}

func runMulti(t *testing.T, cfg Config) (*Simulation, *RunStats) {
	t.Helper()
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sim, r
}

// TestMultiCellHandoffRun drives a 4-cell mobility run under both handoff
// policies and asserts the edge cases all occur without a single consistency
// violation: handoffs while dozing, handoffs with a request in flight
// (mid-query), and responses delivered after their client departed. The
// revalidate policy additionally exercises handoff mid-IR-window — the kept
// cache must survive or be flushed solely by the coverage-window rule.
func TestMultiCellHandoffRun(t *testing.T) {
	for _, policy := range []topology.HandoffPolicy{topology.Drop, topology.Revalidate} {
		for _, algo := range []string{"ts", "hybrid"} {
			t.Run(fmt.Sprintf("%s-%s", algo, policy), func(t *testing.T) {
				cfg := multiCellConfig(algo, 7)
				cfg.Topology.Policy = policy
				sim, r := runMulti(t, cfg)
				if r.NumCells != 4 {
					t.Fatalf("NumCells = %d, want 4", r.NumCells)
				}
				if r.Handoffs == 0 {
					t.Fatal("no handoffs in a vehicular-mobility run")
				}
				if policy == topology.Drop && r.HandoffFlushes == 0 {
					t.Fatal("drop policy flushed nothing")
				}
				if policy == topology.Revalidate && r.HandoffFlushes != 0 {
					t.Fatalf("revalidate policy flushed %d caches", r.HandoffFlushes)
				}
				if r.StaleViolations != 0 {
					t.Fatalf("handoff broke consistency: %d stale answers", r.StaleViolations)
				}
				if sim.handoffsAsleep == 0 {
					t.Error("no handoff happened while a client dozed")
				}
				if sim.handoffsMidQuery == 0 {
					t.Error("no handoff happened with a request in flight")
				}
				if sim.mergedLanes().respDeparted == 0 {
					t.Error("no response outlived its destination's cell membership")
				}
				if r.Answered == 0 {
					t.Fatal("nothing answered")
				}

				// Identical configuration, identical run: multi-cell execution
				// must stay fully deterministic, handoff counters included.
				sim2, r2 := runMulti(t, cfg)
				if a, b := fingerprintMulti(sim, r), fingerprintMulti(sim2, r2); a != b {
					t.Fatalf("multi-cell run not deterministic\nfirst:  %s\nsecond: %s", a, b)
				}
			})
		}
	}
}

// TestMultiCellWorkerCountInvariance runs the same multi-cell replication set
// on one worker and on four: per-run statistics must be byte-identical, the
// same guarantee the flattened sweep scheduler relies on.
func TestMultiCellWorkerCountInvariance(t *testing.T) {
	cfg := multiCellConfig("ts", 11)
	cfg.Horizon = 200 * des.Second
	cfg.Warmup = 50 * des.Second
	const reps = 4
	seq, err := RunReplications(cfg, reps, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunReplications(cfg, reps, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Runs {
		a, b := fingerprintStats(seq.Runs[i]), fingerprintStats(par.Runs[i])
		if a != b {
			t.Errorf("rep %d diverged across worker counts\n1 worker:  %s\n4 workers: %s", i, a, b)
		}
	}
	if seq.HandoffRate.Mean() != par.HandoffRate.Mean() {
		t.Errorf("handoff rate diverged: %v vs %v", seq.HandoffRate.Mean(), par.HandoffRate.Mean())
	}
	if seq.HandoffRate.Mean() <= 0 {
		t.Errorf("handoff rate %v, want > 0", seq.HandoffRate.Mean())
	}
}

// TestMultiCellArenaRecycled proves arena recycling stays transparent when a
// run needs several channels: a simulation built from reclaimed multi-cell
// state matches a cold one byte for byte, even after the arena was dirtied by
// runs of a different cell count.
func TestMultiCellArenaRecycled(t *testing.T) {
	ctx := context.Background()
	cfg := multiCellConfig("hybrid", 5)
	cfg.Horizon = 200 * des.Second
	cfg.Warmup = 50 * des.Second

	cold, err := RunRep(ctx, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}

	arena := NewArena()
	dirty := goldenConfig("ts", 3) // single-cell: one channel, different shape
	dirty.Horizon = 150 * des.Second
	dirty.Warmup = 30 * des.Second
	if _, err := RunRepArena(ctx, dirty, 0, arena); err != nil {
		t.Fatal(err)
	}
	warm1, err := RunRepArena(ctx, cfg, 0, arena) // one pooled channel, three fresh
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := RunRepArena(ctx, cfg, 0, arena) // all four channels pooled
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintStats(cold)
	for i, r := range []*RunStats{warm1, warm2} {
		if got := fingerprintStats(r); got != want {
			t.Errorf("recycled multi-cell run %d diverged from cold\n got: %s\nwant: %s", i+1, got, want)
		}
	}
}

// handoffRecorder counts handoff trace events.
type handoffRecorder struct {
	obs.Base
	events []obs.HandoffEvent
}

func (h *handoffRecorder) Handoff(e obs.HandoffEvent) { h.events = append(h.events, e) }

// TestHandoffTraceEvents checks the observability contract: every handoff
// emits one event with distinct cells, and the Flushed flag mirrors the
// policy.
func TestHandoffTraceEvents(t *testing.T) {
	cfg := multiCellConfig("ts", 9)
	cfg.Horizon = 200 * des.Second
	cfg.Warmup = 50 * des.Second
	rec := &handoffRecorder{}
	cfg.Tracer = rec
	sim, r := runMulti(t, cfg)
	if len(rec.events) == 0 {
		t.Fatal("no handoff events traced")
	}
	// The trace covers the whole run; RunStats only post-warmup.
	if uint64(len(rec.events)) < r.Handoffs {
		t.Fatalf("traced %d handoffs, stats say %d post-warmup", len(rec.events), r.Handoffs)
	}
	for _, e := range rec.events {
		if e.From == e.To {
			t.Fatalf("handoff to same cell: %+v", e)
		}
		if e.From < 0 || e.From >= len(sim.cells) || e.To < 0 || e.To >= len(sim.cells) {
			t.Fatalf("handoff cell out of range: %+v", e)
		}
		if !e.Flushed {
			t.Fatalf("drop-policy handoff not flushed: %+v", e)
		}
	}
}

// TestTopologyMobilityExclusive checks the config guard: the legacy
// single-cell mobility channel and the multi-cell topology cannot be combined.
func TestTopologyMobilityExclusive(t *testing.T) {
	cfg := multiCellConfig("ts", 1)
	cfg.Channel.UseGeometry = true
	cfg.Channel.Mobility = &mobility.Config{
		CellRadiusM: 500, MinDistanceM: 20,
		SpeedMinMps: 1, SpeedMaxMps: 2, PauseMeanSec: 10,
	}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted Channel.Mobility together with multi-cell Topology")
	}
}

// collapsedCityConfig is the benchmark's des-city smoke shape: 2,000 clients
// in four cells, 500 per cell, past the uplink's saturation cliff. Most of
// the run is slotted-ALOHA contention (about 9 attempts per request and 15k
// collisions), so these pins guard the uplink's slot and draw order and its
// per-attempt energy accounting in the regime where they are hottest.
func collapsedCityConfig(parallel bool) Config {
	cfg := DefaultConfig()
	cfg.NumClients = 2_000
	cfg.Topology.NumCells = 4
	cfg.Horizon = 120 * des.Second
	cfg.Warmup = 30 * des.Second
	cfg.Seed = 1
	cfg.Workload.SleepRatio = 0.5
	cfg.Topology.CheckPeriod = 5 * des.Second
	if parallel {
		cfg.Parallel = true
		cfg.ParallelWorkers = 1
	}
	return cfg
}

// TestCollapsedCityGolden pins the collapsed multi-cell shape byte for byte,
// energy included, on the serial engine and on the lane engine at one
// worker. The other multi-cell tests compare reruns and worker counts only;
// these strings hold across commits.
func TestCollapsedCityGolden(t *testing.T) {
	for _, g := range []struct {
		name     string
		parallel bool
		want     string
	}{
		{"serial", false, "q=13667 ans=11038 hit=452 miss=10586 d=16.499484258833 ci=0.5831649615720585 p95=29.027232520630285 max=45.16105 stale=0 drops=111 sig=0 fi=0 rd=8099 rl=3 via=[6224 0 0] up=12480 att=115972 col=15350 airIR=0.08191999999999999 airR=151.33462300000951 airBG=135.0050959999999 util=0.795615663888915 ir=10432 pig=0 rtry=1242 drop=103 e=139055.4428805199 upd=16 pend=2629 cells=4 hoff=267 flush=267 asleep=59 midq=51 depart=108"},
		{"lanes-p1", true, "q=13666 ans=11006 hit=440 miss=10566 d=16.521562481373802 ci=0.5632026397144504 p95=29.027232520630285 max=50.729917 stale=0 drops=113 sig=0 fi=0 rd=8071 rl=5 via=[6196 0 0] up=12454 att=116032 col=15434 airIR=0.08191999999999999 airR=149.85028400000888 airBG=135.01412999999997 util=0.791517594444469 ir=10432 pig=0 rtry=1209 drop=103 e=139080.2818338532 upd=16 pend=2660 cells=4 hoff=267 flush=267 asleep=58 midq=55 depart=104"},
	} {
		t.Run(g.name, func(t *testing.T) {
			sim, r := runMulti(t, collapsedCityConfig(g.parallel))
			if got := fingerprintMulti(sim, r); got != g.want {
				t.Errorf("collapsed city fingerprint diverged\n got: %s\nwant: %s", got, g.want)
			}
		})
	}
}
