package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/ir"
)

// desShape is one simulator workload: the schemes a pass runs (one
// replication each, pass k on seed+k) and the configuration they share.
type desShape struct {
	algos []string
	base  core.Config
	lanes bool // lane engine on (Config.Parallel)
}

// desShapeFor builds the named DES workload. Smoke shapes keep the code path
// and shrink the scale so the unit tests cover every workload in seconds.
func desShapeFor(name string, smoke bool) (desShape, error) {
	switch name {
	case "des-paper":
		// The evaluation cell every figure sweeps: paper defaults (100
		// clients, 1 h horizon, 5 min warmup, TrafficLoad 0.2), all eight
		// schemes. Radio, rng and math take most of the CPU; the single cell
		// bypasses the lane engine.
		cfg := core.DefaultConfig()
		algos := ir.Names
		if smoke {
			algos = []string{"ts", "hybrid"}
			cfg.Horizon = 15 * des.Minute
		}
		return desShape{algos: algos, base: cfg}, nil
	case "des-city":
		// The scale shape: uplink contention, handoff, a large pending set,
		// lane barriers and memory, with the lane engine on. The timed legs
		// run it with one lane worker: with every core busy, a run's speed
		// depends on the shared machine giving it all of them at once (runs
		// spread 0.17 at NumCPU workers against 0.07 at one); the traced run
		// measures NumCPU workers against one as core.parallel_efficiency.
		// The 240 s horizon fits several replications into one run's budget.
		cfg := core.DefaultConfig()
		cfg.NumClients = 20_000
		cfg.Topology.NumCells = 16
		cfg.Horizon = 240 * des.Second
		cfg.Warmup = 60 * des.Second
		if smoke {
			cfg.NumClients = 2_000
			cfg.Topology.NumCells = 4
			cfg.Horizon = 120 * des.Second
			cfg.Warmup = 30 * des.Second
		}
		cfg.Workload.SleepRatio = 0.5
		cfg.Topology.CheckPeriod = 5 * des.Second
		return desShape{algos: []string{cfg.Algorithm}, base: cfg, lanes: true}, nil
	}
	return desShape{}, fmt.Errorf("bench: unknown DES workload %q", name)
}

// RepResult is one replication as a DES child measured it.
type RepResult struct {
	Algo        string  `json:"algo"`
	Seed        uint64  `json:"seed"`
	Pass        int     `json:"pass"`
	StartSec    float64 `json:"start_sec"` // offset of set-up from the child's start
	SetupSec    float64 `json:"setup_sec"` // core.NewSimulation
	ExecSec     float64 `json:"exec_sec"`  // Execute, as RunStats.WallSec
	Events      uint64  `json:"events"`
	MeasuredSec float64 `json:"measured_sec"`
	Epochs      uint64  `json:"epochs"`
	Workers     int     `json:"workers"`
	Fingerprint string  `json:"fingerprint"`
	Stale       uint64  `json:"stale"`

	// Layer counters RunStats already returns.
	ReportsDecoded   uint64  `json:"reports_decoded"`
	UplinkAttempts   uint64  `json:"uplink_attempts"`
	UplinkCollisions uint64  `json:"uplink_collisions"`
	Handoffs         uint64  `json:"handoffs"`
	HitRatio         float64 `json:"hit_ratio"`
}

// ChildReport is what a DES child prints as its last stdout line.
type ChildReport struct {
	Passes  int         `json:"passes"`
	Reps    []RepResult `json:"reps"`
	CPUSec  float64     `json:"cpu_sec"`  // own user+system CPU over the replications
	WallSec float64     `json:"wall_sec"` // wall time over the replications
	PeakRSS float64     `json:"peak_rss_mib"`
}

// ChildArgs selects what one DES child runs.
type ChildArgs struct {
	Workload string
	Seed     uint64
	Seconds  float64 // time budget when Passes is zero
	Passes   int     // exact pass count; zero runs passes while the budget lasts
	Workers  int     // lane workers for lane shapes; zero means one
	Profile  string  // CPU profile destination; empty disables profiling
	Smoke    bool
}

// args renders the child's command line (after the executable).
func (a ChildArgs) args() []string {
	out := []string{
		"-child", a.Workload,
		"-seed", strconv.FormatUint(a.Seed, 10),
		"-seconds", strconv.FormatFloat(a.Seconds, 'g', -1, 64),
		"-passes", strconv.Itoa(a.Passes),
		"-workers", strconv.Itoa(a.Workers),
	}
	if a.Profile != "" {
		out = append(out, "-profile", a.Profile)
	}
	if a.Smoke {
		out = append(out, "-smoke")
	}
	return out
}

// RunDESChild runs replications in this process and writes the ChildReport
// to w. Pass k runs every scheme of the shape on seed+k. With a time budget,
// another pass starts only if, at the mean pass time so far, it would end
// within the budget; there is always at least one pass.
func RunDESChild(a ChildArgs, w io.Writer) error {
	shape, err := desShapeFor(a.Workload, a.Smoke)
	if err != nil {
		return err
	}
	workers := max(a.Workers, 1)
	if a.Profile != "" {
		f, err := os.Create(a.Profile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	cpu0, err := selfCPUSec()
	if err != nil {
		return err
	}
	start := time.Now()
	rep := ChildReport{}
	for pass := 0; ; pass++ {
		if a.Passes > 0 && pass >= a.Passes {
			break
		}
		if a.Passes == 0 && pass > 0 {
			el := time.Since(start).Seconds()
			if el+el/float64(pass) > a.Seconds {
				break
			}
		}
		for _, algo := range shape.algos {
			cfg := shape.base
			cfg.Algorithm = algo
			cfg.Seed = a.Seed + uint64(pass)
			if shape.lanes {
				cfg.Parallel = true
				cfg.ParallelWorkers = workers
			}
			r, err := runRep(cfg, pass, start)
			if err != nil {
				return err
			}
			rep.Reps = append(rep.Reps, r)
		}
		rep.Passes = pass + 1
	}
	rep.WallSec = time.Since(start).Seconds()
	cpu1, err := selfCPUSec()
	if err != nil {
		return err
	}
	rep.CPUSec = cpu1 - cpu0
	if a.Profile != "" {
		pprof.StopCPUProfile()
	}
	if rep.PeakRSS, err = peakRSSMiB(os.Getpid()); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(rep)
}

// runRep builds and executes one replication. The heap is collected first,
// outside both timed regions, so every replication's set-up starts from the
// same state.
func runRep(cfg core.Config, pass int, childStart time.Time) (RepResult, error) {
	runtime.GC()
	t0 := time.Now()
	sim, err := core.NewSimulation(cfg)
	if err != nil {
		return RepResult{}, err
	}
	setup := time.Since(t0)
	st := sim.Execute()
	fp, err := Fingerprint(st)
	if err != nil {
		return RepResult{}, err
	}
	return RepResult{
		Algo: cfg.Algorithm, Seed: cfg.Seed, Pass: pass,
		StartSec: t0.Sub(childStart).Seconds(), SetupSec: setup.Seconds(), ExecSec: st.WallSec,
		Events: st.Events, MeasuredSec: st.MeasuredSec, Epochs: st.Epochs, Workers: st.ParallelWorkers,
		Fingerprint: fp, Stale: st.StaleViolations,
		ReportsDecoded: st.ReportsDecoded, UplinkAttempts: st.UplinkAttempts,
		UplinkCollisions: st.UplinkCollisions, Handoffs: st.Handoffs, HitRatio: st.HitRatio,
	}, nil
}

// childRun is one finished DES child as the parent saw it.
type childRun struct {
	report ChildReport
	start  time.Time
	end    time.Time
}

// runChild re-executes this benchmark as a DES child, so the peak RSS it
// reports belongs to one workload alone.
func runChild(opts *Options, a ChildArgs) (*childRun, error) {
	cmd := exec.Command(opts.Self, a.args()...)
	cmd.Stderr = os.Stderr
	start := time.Now()
	out, err := cmd.Output()
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("bench: %s child: %w", a.Workload, err)
	}
	cr := &childRun{start: start, end: end}
	if err := json.Unmarshal(lastLine(out), &cr.report); err != nil {
		return nil, fmt.Errorf("bench: %s child output: %w", a.Workload, err)
	}
	if len(cr.report.Reps) == 0 {
		return nil, fmt.Errorf("bench: %s child ran no replications", a.Workload)
	}
	return cr, nil
}

// runDES runs one simulator workload: a timed child, and for a traced run a
// profiled rerun of exactly the same replications (plus, for the lane
// engine, the first replication again at NumCPU workers).
func runDES(name string, opts *Options) (*Result, error) {
	shape, err := desShapeFor(name, opts.Smoke)
	if err != nil {
		return nil, err
	}
	res := &Result{Workload: name}
	timedArgs := ChildArgs{Workload: name, Seed: opts.Seed, Seconds: opts.Seconds, Smoke: opts.Smoke}
	timed, err := runChild(opts, timedArgs)
	if err != nil {
		return nil, err
	}
	reps := timed.report.Reps
	res.Attempted = int64(len(reps))
	for _, r := range reps {
		if err := CheckStale(r); err != nil {
			res.fail("%v", err)
		}
	}
	res.Fingerprint = passFingerprint(reps, 0)
	res.EndToEnd = desEndToEnd(timed)
	res.Detail = desRates(reps)
	if opts.TraceDir == "" {
		return res, nil
	}

	spans := NewSpans()
	addChildSpans(spans, "des.timed", timed)
	tracedArgs := timedArgs
	tracedArgs.Passes = timed.report.Passes
	tracedArgs.Profile = filepath.Join(opts.TraceDir, name+".cpu.pprof")
	traced, err := runChild(opts, tracedArgs)
	if err != nil {
		return nil, err
	}
	addChildSpans(spans, "des.traced", traced)
	if len(traced.report.Reps) != len(reps) {
		res.fail("traced run: %d replications, timed run %d", len(traced.report.Reps), len(reps))
	} else {
		for i := range reps {
			if err := CheckSameReplication("timed vs traced "+reps[i].Algo+" seed "+strconv.FormatUint(reps[i].Seed, 10),
				reps[i], traced.report.Reps[i]); err != nil {
				res.fail("%v", err)
			}
		}
	}

	layers, err := profileLayers(tracedArgs.Profile, traced.report.CPUSec)
	if err != nil {
		return nil, err
	}
	tracedEvents, tracedExec, _ := totals(traced.report.Reps)
	timedEvents, timedExec, _ := totals(reps)
	tracedRate, timedRate := tracedEvents/tracedExec, timedEvents/timedExec
	layers = append(layers,
		Metric{Name: "trace.overhead_pct", Unit: "%", Value: 100 * (timedRate - tracedRate) / timedRate},
		Metric{Name: "sut.cpu_per_wall", Unit: "ratio", Value: traced.report.CPUSec / traced.report.WallSec},
		Metric{Name: "sut.cpu_ns_per_op", Unit: "ns", Value: 1e9 * traced.report.CPUSec / tracedEvents},
	)
	res.PerLayer = layers
	res.Detail = append(res.Detail, desCounters(reps)...)
	res.Detail = append(res.Detail, perSchemeCost(reps)...)

	if shape.lanes {
		wideArgs := timedArgs
		wideArgs.Passes, wideArgs.Workers = 1, runtime.NumCPU()
		wide, err := runChild(opts, wideArgs)
		if err != nil {
			return nil, err
		}
		addChildSpans(spans, "des.wide", wide)
		r1, rn := reps[0], wide.report.Reps[0]
		if err := CheckSameReplication(fmt.Sprintf("P=1 vs P=%d", rn.Workers), r1, rn); err != nil {
			res.fail("worker invariance: %v", err)
		}
		eff := (float64(rn.Events) / rn.ExecSec) / (float64(rn.Workers) * float64(r1.Events) / r1.ExecSec)
		res.Detail = append(res.Detail, Metric{Name: "core.parallel_efficiency", Unit: "ratio", Value: eff})
	}
	return res, spans.WriteJSONL(filepath.Join(opts.TraceDir, name+".spans.jsonl"))
}

// desEndToEnd derives the end-to-end metrics of a DES run. Every one repeats
// per pass. The latency percentiles are over the pass's replications: the
// host time from building a replication to holding its result. With eight
// schemes per pass, p99 reads the slowest scheme's replication; with one, p50
// and p99 both read it.
func desEndToEnd(c *childRun) []Metric {
	var rate, p50, p99, setup []float64
	for p := 0; p < c.report.Passes; p++ {
		var ev, ex, su float64
		var repMS []float64
		for _, r := range c.report.Reps {
			if r.Pass == p {
				ev += float64(r.Events)
				ex += r.ExecSec
				su += r.SetupSec
				repMS = append(repMS, 1e3*(r.SetupSec+r.ExecSec))
			}
		}
		rate = append(rate, ev/ex)
		setup = append(setup, su)
		p50 = append(p50, quantile(repMS, 0.5))
		p99 = append(p99, quantile(repMS, 0.99))
	}
	return []Metric{
		steadyMetric("throughput_per_s", "1/s", rate, true),
		steadyMetric("p50_ms", "ms", p50, false),
		steadyMetric("p99_ms", "ms", p99, false),
		{Name: "peak_rss_mib", Unit: "MiB", Value: c.report.PeakRSS},
		medianMetric("setup_s", "s", setup),
	}
}

// desRates are the simulator's own rates over the whole run: events per host
// second and simulated seconds per host second. They diverge when a change
// alters how many events a simulated second takes.
func desRates(reps []RepResult) []Metric {
	events, exec, sim := totals(reps)
	return []Metric{
		{Name: "events_per_s", Unit: "ev/s", Value: events / exec},
		{Name: "sim_s_per_s", Unit: "s/s", Value: sim / exec},
	}
}

// totals sums the replications' events, Execute seconds and measured
// simulated seconds.
func totals(reps []RepResult) (events, execSec, simSec float64) {
	for _, r := range reps {
		events += float64(r.Events)
		execSec += r.ExecSec
		simSec += r.MeasuredSec
	}
	return events, execSec, simSec
}

// desCounters are the layer counters RunStats returns, summed over the run.
func desCounters(reps []RepResult) []Metric {
	var decoded, attempts, collisions, handoffs, epochs, events uint64
	var hits []float64
	for _, r := range reps {
		decoded += r.ReportsDecoded
		attempts += r.UplinkAttempts
		collisions += r.UplinkCollisions
		handoffs += r.Handoffs
		epochs += r.Epochs
		events += r.Events
		hits = append(hits, r.HitRatio)
	}
	ms := []Metric{
		{Name: "des.events", Unit: "count", Value: float64(events)},
		{Name: "ir.reports_decoded", Unit: "count", Value: float64(decoded)},
		{Name: "mac.uplink_attempts", Unit: "count", Value: float64(attempts)},
		{Name: "mac.uplink_collision_ratio", Unit: "ratio", Value: ratio(float64(collisions), float64(attempts))},
		{Name: "topology.handoffs", Unit: "count", Value: float64(handoffs)},
		medianMetric("cache.hit_ratio", "ratio", hits),
		{Name: "core.epochs", Unit: "count", Value: float64(epochs)},
	}
	if epochs > 0 {
		ms = append(ms, Metric{Name: "core.events_per_epoch", Unit: "ev", Value: float64(events) / float64(epochs)})
	}
	return ms
}

// perSchemeCost is the host seconds per replication of each scheme, median
// over the run's passes.
func perSchemeCost(reps []RepResult) []Metric {
	var ms []Metric
	for _, algo := range ir.Names {
		var secs []float64
		for _, r := range reps {
			if r.Algo == algo {
				secs = append(secs, r.SetupSec+r.ExecSec)
			}
		}
		if len(secs) > 0 {
			ms = append(ms, medianMetric("core.rep_s."+algo, "s", secs))
		}
	}
	return ms
}

// passFingerprint combines the fingerprints of one pass's replications.
func passFingerprint(reps []RepResult, pass int) string {
	var fps []string
	for _, r := range reps {
		if r.Pass == pass {
			fps = append(fps, r.Fingerprint)
		}
	}
	return CombineFingerprints(fps)
}

// addChildSpans records a child process span and, under it, one span per
// replication with its set-up and execute children.
func addChildSpans(s *Spans, name string, c *childRun) {
	root := s.Add(0, name, c.start, c.end)
	// The child's clock starts a little after the parent's spawn; the
	// replication offsets are relative to the child's own start.
	base := c.start
	for _, r := range c.report.Reps {
		t0 := base.Add(time.Duration(r.StartSec * 1e9))
		t1 := t0.Add(time.Duration(r.SetupSec * 1e9))
		t2 := t1.Add(time.Duration(r.ExecSec * 1e9))
		rep := s.Add(root, "des.replication."+r.Algo, t0, t2)
		s.Add(rep, "core.NewSimulation", t0, t1)
		s.Add(rep, "core.Execute", t1, t2)
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	end := len(out)
	for end > 0 && (out[end-1] == '\n' || out[end-1] == '\r') {
		end--
	}
	start := end
	for start > 0 && out[start-1] != '\n' {
		start--
	}
	return out[start:end]
}
