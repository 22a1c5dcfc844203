package core

import (
	"os"
	"testing"

	"repro/internal/des"
)

// cityRSSCeiling is the resident-memory budget of the 100k-client 16-cell
// point. It peaks near 806 MiB, so growing the per-client footprint (cache
// rows, channel links, client tables) by about a quarter crosses it.
const cityRSSCeiling = 1 << 30

// TestCityProfilePoint runs the 100k-client 16-cell city point: half the
// population dozing, seed 7, a 2 min horizon. It asserts zero stale answers
// and, where the OS reports it, a peak RSS under cityRSSCeiling; the peak is
// the whole test process's, so `make city-rss` runs this test alone. Profile
// it with -cpuprofile. Opt-in via WDC_CITY_PROFILE=1: the point takes ~15s,
// too slow for the default suite.
func TestCityProfilePoint(t *testing.T) {
	if os.Getenv("WDC_CITY_PROFILE") == "" {
		t.Skip("set WDC_CITY_PROFILE=1 to run the 100k-client profile point")
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.NumClients = 100_000
	cfg.Workload.SleepRatio = 0.5
	cfg.Horizon = 2 * des.Minute
	cfg.Warmup = cfg.Horizon / 4
	cfg.Topology.NumCells = 16
	cfg.Topology.CheckPeriod = 5 * des.Second
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("events=%d events/s=%.0f", stats.Events, stats.EventsPerSec)
	if stats.StaleViolations != 0 {
		t.Errorf("%d stale answers", stats.StaleViolations)
	}
	peak := peakRSSBytes()
	if peak == 0 {
		t.Log("peak RSS not measured on this OS")
		return
	}
	t.Logf("peak RSS %.1f MiB", float64(peak)/(1<<20))
	if peak > cityRSSCeiling {
		t.Errorf("peak RSS %.1f MiB exceeds the %.0f MiB ceiling", float64(peak)/(1<<20), float64(cityRSSCeiling)/(1<<20))
	}
}
