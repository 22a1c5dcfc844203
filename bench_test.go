// Benchmark harness: one benchmark per figure/table of the evaluation (see
// DESIGN.md §4 and EXPERIMENTS.md). Each sub-benchmark runs shortened
// replications of one (algorithm, sweep-point) cell and reports the cell's
// headline metrics via b.ReportMetric, so
//
//	go test -bench F4 -benchmem
//
// regenerates the corresponding figure's series at reduced scale. Full-scale
// regeneration (longer horizons, more replications, confidence intervals) is
// cmd/wdcsweep's job; the benchmarks trade precision for a runtime that fits
// in a CI budget.
package repro

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/des"
	"repro/internal/experiment"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// benchBase is the reduced-scale configuration the benchmarks run.
func benchBase() core.Config {
	cfg := core.DefaultConfig()
	cfg.NumClients = 50
	cfg.Horizon = 500 * des.Second
	cfg.Warmup = 100 * des.Second
	return cfg
}

// runCell executes b.N replications of one experiment cell and reports the
// across-replication mean of the headline metrics.
func runCell(b *testing.B, cfg core.Config) {
	b.Helper()
	var delay, hit, overhead, energy, util float64
	var stale uint64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		r, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		delay += r.MeanDelay
		hit += r.HitRatio
		overhead += r.OverheadBitsPerSec()
		energy += r.EnergyPerQuery
		util += r.DownlinkUtil
		stale += r.StaleViolations
	}
	n := float64(b.N)
	b.ReportMetric(delay/n, "s-delay")
	b.ReportMetric(hit/n, "hit-ratio")
	b.ReportMetric(overhead/n, "b/s-overhead")
	b.ReportMetric(energy/n, "J/query")
	b.ReportMetric(util/n, "util")
	if stale != 0 {
		b.Fatalf("consistency violated: %d stale answers", stale)
	}
}

// benchExperiment expands one registry entry into sub-benchmarks.
func benchExperiment(b *testing.B, id string) {
	exp := experiment.ByID(id)
	if exp == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	algos := exp.Algorithms
	if len(algos) == 0 {
		algos = []string{"ts", "at", "sig", "bs", "uir", "tair", "lair", "hybrid"}
	}
	for _, p := range exp.Points {
		for _, algo := range algos {
			p, algo := p, algo
			b.Run(fmt.Sprintf("%s=%s/%s", exp.XLabel, p.Label, algo), func(b *testing.B) {
				cfg := benchBase()
				p.Mutate(&cfg)
				cfg.Algorithm = algo
				runCell(b, cfg)
			})
		}
	}
}

// Figures.

func BenchmarkF1DelayVsUpdateRate(b *testing.B)      { benchExperiment(b, "F1") }
func BenchmarkF2HitRatioVsUpdateRate(b *testing.B)   { benchExperiment(b, "F2") }
func BenchmarkF3DelayVsQueryRate(b *testing.B)       { benchExperiment(b, "F3") }
func BenchmarkF4DelayVsDownlinkLoad(b *testing.B)    { benchExperiment(b, "F4") }
func BenchmarkF5OverheadVsDownlinkLoad(b *testing.B) { benchExperiment(b, "F5") }
func BenchmarkF6DelayVsSNR(b *testing.B)             { benchExperiment(b, "F6") }
func BenchmarkF7MissVsSNR(b *testing.B)              { benchExperiment(b, "F7") }
func BenchmarkF8DelayVsSleep(b *testing.B)           { benchExperiment(b, "F8") }
func BenchmarkF9ScalabilityClients(b *testing.B)     { benchExperiment(b, "F9") }
func BenchmarkF10SkewSweep(b *testing.B)             { benchExperiment(b, "F10") }

// Tables.

func BenchmarkT1DefaultMatrix(b *testing.B)      { benchExperiment(b, "T1") }
func BenchmarkT2DopplerMatrix(b *testing.B)      { benchExperiment(b, "T2") }
func BenchmarkT3IRIntervalTradeoff(b *testing.B) { benchExperiment(b, "T3") }
func BenchmarkT4WindowTradeoff(b *testing.B)     { benchExperiment(b, "T4") }

// Ablations.

func BenchmarkA1CoverageAblation(b *testing.B)   { benchExperiment(b, "A1") }
func BenchmarkA2SchedulingAblation(b *testing.B) { benchExperiment(b, "A2") }
func BenchmarkA3SnoopExtension(b *testing.B)     { benchExperiment(b, "A3") }
func BenchmarkA4MobilitySweep(b *testing.B)      { benchExperiment(b, "A4") }
func BenchmarkA5CachePolicy(b *testing.B)        { benchExperiment(b, "A5") }
func BenchmarkA6Coalescing(b *testing.B)         { benchExperiment(b, "A6") }

// BenchmarkEngine measures the raw simulator throughput (events/second of
// wall time) independent of any experiment. It measures while you work;
// bash bench/run.sh is the benchmark that compares commits.
func BenchmarkEngine(b *testing.B) {
	cfg := benchBase()
	cfg.Algorithm = "hybrid"
	var events uint64
	var simSec float64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		sim, err := core.NewSimulation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r := sim.Execute()
		events += sim.Executed()
		simSec += r.MeasuredSec
	}
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(simSec/b.Elapsed().Seconds(), "simsec/s")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(events), "allocs/event")
}

// maxAllocsPerEvent bounds the engine's steady-state heap allocations: frames,
// reports and their item slices recycle through free lists, so what remains
// is mostly set-up and warmup: 0.14 to 0.20 per event across the schemes at
// seed 1. One more heap allocation per event puts every scheme above 1.
const maxAllocsPerEvent = 0.25

// TestEngineAllocsPerEvent runs one benchBase replication per scheme, set-up
// included as BenchmarkEngine counts it, and bounds its heap allocations per
// executed event.
func TestEngineAllocsPerEvent(t *testing.T) {
	for _, algo := range ir.Names {
		t.Run(algo, func(t *testing.T) {
			cfg := benchBase()
			cfg.Algorithm = algo
			cfg.Seed = 1
			var events uint64
			allocs := testing.AllocsPerRun(1, func() {
				sim, err := core.NewSimulation(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sim.Execute()
				events = sim.Executed()
			})
			perEvent := allocs / float64(events)
			t.Logf("%.0f allocs over %d events: %.4f allocs/event", allocs, events, perEvent)
			if perEvent > maxAllocsPerEvent {
				t.Errorf("%.4f allocs/event, want <= %.2f", perEvent, maxAllocsPerEvent)
			}
		})
	}
}

// benchSketchSamples generates a deterministic log-uniform delay stream in
// [100 µs, 100 s) — the range a query-delay sketch actually sees.
func benchSketchSamples(n int) []float64 {
	out := make([]float64, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range out {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		u := float64(state>>11) / float64(1<<53)
		out[i] = 1e-4 * math.Pow(1e6, u)
	}
	return out
}

// BenchmarkSketchObserve measures the per-sample cost of the quantile sketch
// on the delay-observation hot path. Each iteration observes a fixed batch so
// the "ns/observe" metric stays stable even at a low -benchtime.
func BenchmarkSketchObserve(b *testing.B) {
	const batch = 1 << 14
	samples := benchSketchSamples(batch)
	s := metrics.NewDelaySketch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range samples {
			s.Observe(x)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/observe")
}

// BenchmarkSketchMerge measures the cost of folding one populated delay
// sketch into another — the per-replication aggregation step. Merge cost is
// O(buckets) regardless of counts, so merging into one accumulator repeatedly
// is representative.
func BenchmarkSketchMerge(b *testing.B) {
	const merges = 128
	src := metrics.NewDelaySketch()
	for _, x := range benchSketchSamples(1 << 14) {
		src.Observe(x)
	}
	dst := metrics.NewDelaySketch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < merges; j++ {
			dst.Merge(src)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*merges), "ns/merge")
}

// BenchmarkReportDecode measures the client-side hot path of the served
// planes: one broadcast report decoded into a reused Report via
// ir.UnmarshalInto. The reuse contract makes the steady state allocation-free
// (the items backing array and sig block are retained across decodes);
// TestUnmarshalIntoReusesBuffers in internal/serve asserts the zero.
func BenchmarkReportDecode(b *testing.B) {
	items := make([]db.Update, 64)
	for i := range items {
		items[i] = db.Update{ID: i * 7 % 997, At: des.Time(1_000_000 + i*1_000)}
	}
	data := (&ir.Report{
		Kind: ir.KindFull, Seq: 42, At: 2_000_000, PrevAt: 1_000_000,
		WindowStart: 500_000, Items: items,
	}).Marshal()
	var dst ir.Report
	if err := ir.UnmarshalInto(&dst, data); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ir.UnmarshalInto(&dst, data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/decode")
}

// BenchmarkTracerOverhead measures the simulator at the tracer's three
// operating points: disabled (the nil-guard fast path every production run
// takes), a bounded in-memory ring, and a JSONL sink writing to a discarded
// stream. Comparing "off" against BenchmarkEngine shows what the disabled
// tracer costs; "ring" and "jsonl" show what enabling tracing costs.
func BenchmarkTracerOverhead(b *testing.B) {
	variants := []struct {
		name   string
		tracer func() obs.Tracer
	}{
		{"off", func() obs.Tracer { return nil }},
		{"ring", func() obs.Tracer { return obs.NewRing(1 << 12) }},
		{"jsonl", func() obs.Tracer { return obs.NewJSONL(io.Discard) }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := benchBase()
			cfg.Algorithm = "hybrid"
			var events uint64
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i) + 1
				cfg.Tracer = v.tracer()
				sim, err := core.NewSimulation(cfg)
				if err != nil {
					b.Fatal(err)
				}
				sim.Execute()
				events += sim.Executed()
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
