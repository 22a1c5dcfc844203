package bench

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// endToEnd are the metrics every workload reports in a timed run.
var endToEnd = map[string]string{
	"throughput_per_s": "1/s",
	"p50_ms":           "ms",
	"p99_ms":           "ms",
	"peak_rss_mib":     "MiB",
	"setup_s":          "s",
}

// perLayer are the metrics every workload reports in a traced run.
func perLayer() map[string]string {
	m := map[string]string{
		"profile.residual_pct": "%",
		"trace.overhead_pct":   "%",
		"sut.cpu_per_wall":     "ratio",
		"sut.cpu_ns_per_op":    "ns",
	}
	for _, mod := range Modules {
		m[mod+".self_share"] = "ratio"
	}
	return m
}

// detail are the workload-specific layer metrics of a traced run.
var detail = map[string][]string{
	"des-paper": {"events_per_s", "sim_s_per_s", "des.events", "ir.reports_decoded",
		"mac.uplink_attempts", "mac.uplink_collision_ratio", "topology.handoffs", "cache.hit_ratio",
		"core.epochs", "core.rep_s.ts", "core.rep_s.hybrid"},
	"des-city": {"events_per_s", "sim_s_per_s", "des.events", "ir.reports_decoded",
		"mac.uplink_attempts", "mac.uplink_collision_ratio", "topology.handoffs", "cache.hit_ratio",
		"core.epochs", "core.events_per_epoch", "core.parallel_efficiency"},
	"served-read": {"gen.lateness_p50_ms", "gen.lateness_p99_ms", "client.rtt_p50_us", "client.rtt_p99_us",
		"client.decode_ns", "client.p999_ms", "fail_ratio", "gen.knee_ops_per_s", "serve.broadcasts",
		"serve.actor_queue_max", "serve.queries_served", "serve.updates_applied", "ir.broadcast_bytes_mean",
		"serve.engine_query_ns", "serve.actor_handoff_ns", "serve.socket_residual_us", "serve.engine_broadcast_ns"},
	"served-write": {"gen.lateness_p50_ms", "gen.lateness_p99_ms", "client.rtt_p50_us", "client.rtt_p99_us",
		"client.decode_ns", "client.p999_ms", "fail_ratio", "gen.knee_ops_per_s", "serve.broadcasts",
		"serve.actor_queue_max", "serve.queries_served", "serve.updates_applied", "ir.broadcast_bytes_mean",
		"ir.catchup_bytes_mean", "serve.engine_query_ns", "serve.actor_handoff_ns", "serve.socket_residual_us",
		"serve.engine_broadcast_ns", "serve.engine_catchup_ns", "serve.engine_inject_ns"},
}

// TestSmoke runs all four workloads at toy scale as a traced run of the
// wdcperf binary and checks that every named metric is emitted, finite and
// with its unit, that the DES profile shares sum to one, that the served
// stages add up to the client round trip, and that every check passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	dir := t.TempDir()
	server, err := BuildServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	perf := filepath.Join(dir, "wdcperf")
	if out, err := exec.Command("go", "build", "-o", perf, "./cmd/wdcperf").CombinedOutput(); err != nil {
		t.Fatalf("build wdcperf: %v\n%s", err, out)
	}
	record := filepath.Join(dir, "record.json")
	cmd := exec.Command(perf, "-smoke", "-seconds", "1", "-seed", "3", "-server", server,
		"-trace", filepath.Join(dir, "trace"), "-json", record)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("wdcperf: %v\n%s", err, out)
	}
	var rec Record
	raw, err := os.ReadFile(record)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Results) != len(Workloads) || rec.Machine.NumCPU == 0 || rec.Machine.GoVersion == "" {
		t.Fatalf("record has %d results, machine %+v", len(rec.Results), rec.Machine)
	}
	for _, res := range rec.Results {
		if !res.Correct() || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s: failures %v, attempted %d, failed %d", res.Workload, res.Failures, res.Attempted, res.Failed)
		}
		checkMetrics(t, res.Workload+" end-to-end", res.EndToEnd, endToEnd)
		checkMetrics(t, res.Workload+" per-layer", res.PerLayer, perLayer())
		want := map[string]string{}
		for _, n := range detail[res.Workload] {
			want[n] = ""
		}
		checkMetrics(t, res.Workload+" detail", res.Detail, want)

		got := byName(res.PerLayer)
		var shares float64
		for _, m := range Modules {
			shares += got[m+".self_share"]
		}
		if math.Abs(shares-1) > 1e-9 {
			t.Errorf("%s: profile shares sum to %v", res.Workload, shares)
		}
		if strings.HasPrefix(res.Workload, "served-") {
			d := byName(res.Detail)
			stages := (d["serve.engine_query_ns"]+d["serve.actor_handoff_ns"])/1e3 + d["serve.socket_residual_us"]
			if math.Abs(stages-d["client.rtt_p50_us"]) > 1e-6 {
				t.Errorf("%s: stages add to %v µs, round trip is %v µs", res.Workload, stages, d["client.rtt_p50_us"])
			}
		}
	}
	for _, w := range Workloads {
		if _, err := os.Stat(filepath.Join(dir, "trace", w+".spans.jsonl")); err != nil {
			t.Errorf("no spans for %s: %v", w, err)
		}
	}
	// The last stdout line is the traced summary of the last workload.
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var sum struct {
		Correct bool
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || !sum.Correct || len(sum.Metrics) != len(perLayer()) {
		t.Fatalf("summary line %q: %v", lines[len(lines)-1], err)
	}
}

// checkMetrics asserts ms holds every wanted name, each finite and with a
// unit (the wanted unit, where one is given).
func checkMetrics(t *testing.T, what string, ms []Metric, want map[string]string) {
	t.Helper()
	got := map[string]Metric{}
	for _, m := range ms {
		got[m.Name] = m
	}
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", what, name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", what, name, m.Value)
		case m.Unit == "" || (unit != "" && m.Unit != unit):
			t.Errorf("%s: %s unit %q, want %q", what, name, m.Unit, unit)
		}
	}
}

func byName(ms []Metric) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out
}
