// Package bench is the repository's end-to-end benchmark: four timed
// workloads over the two systems the repository ships — the discrete-event
// simulator (des-paper, des-city) and the wdcserved daemon (served-read,
// served-write) — plus a traced run that splits each workload's cost into
// layers. Layers are measured only from outside the program: CPU profiles the
// benchmark starts itself, counters that public APIs already return, spans
// around the benchmark's own calls, and direct timed calls into public layer
// functions. See README.md for the metric glossary.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// Metric is one named measurement. Value is the reported number: a quantile
// of Samples, the in-run repeats, or a single measurement when Samples is
// empty.
type Metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples []float64 `json:"samples,omitempty"`
}

// Min, Median and Max summarize the in-run repeats (Value when there are
// none).
func (m Metric) Min() float64    { return quantile(m.samplesOrValue(), 0) }
func (m Metric) Median() float64 { return quantile(m.samplesOrValue(), 0.5) }
func (m Metric) Max() float64    { return quantile(m.samplesOrValue(), 1) }

func (m Metric) samplesOrValue() []float64 {
	if len(m.Samples) == 0 {
		return []float64{m.Value}
	}
	return m.Samples
}

// medianMetric builds a metric whose value is the median of its samples.
func medianMetric(name, unit string, samples []float64) Metric {
	return Metric{Name: name, Unit: unit, Value: quantile(samples, 0.5), Samples: samples}
}

// steadyMetric builds a metric whose value is the fast quartile of its in-run
// repeats: the 75th percentile of a rate, the 25th of a time. On a machine
// shared with other tenants, interference only ever slows a repeat down, and
// it comes in bursts lasting seconds to minutes; the median of a run's
// repeats drifts with the neighbours' load, while the fast quartile ignores
// the repeats a burst hit and still rests on several repeats, not one.
func steadyMetric(name, unit string, samples []float64, higherBetter bool) Metric {
	q := 0.25
	if higherBetter {
		q = 0.75
	}
	return Metric{Name: name, Unit: unit, Value: quantile(samples, q), Samples: samples}
}

// Result is one workload's outcome: the end-to-end metrics of the timed leg;
// for a traced run the per-layer metrics every workload reports (PerLayer)
// and those only some workloads have (Detail, which also holds a timed run's
// supporting rates); the correctness verdict and the operation counts it
// rests on.
type Result struct {
	Workload  string   `json:"workload"`
	EndToEnd  []Metric `json:"end_to_end"`
	PerLayer  []Metric `json:"per_layer,omitempty"`
	Detail    []Metric `json:"detail,omitempty"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	// Failures lists every correctness check that did not hold; empty means
	// the run is correct.
	Failures []string `json:"failures,omitempty"`
	// Fingerprint identifies the simulated output of a DES workload's first
	// pass, so two builds run on the same seed can be compared.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Correct reports whether every check held.
func (r *Result) Correct() bool { return len(r.Failures) == 0 }

// fail records a failed check.
func (r *Result) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// Machine is the stamp every record carries: the numbers mean nothing
// without the machine they ran on.
type Machine struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// ThisMachine stamps the running process.
func ThisMachine() Machine {
	return Machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// Record is what -json writes: the stamp, the run's arguments and every
// workload's result.
type Record struct {
	Machine Machine  `json:"machine"`
	Seed    uint64   `json:"seed"`
	Seconds float64  `json:"seconds"`
	Traced  bool     `json:"traced"`
	Results []Result `json:"results"`
}

// WriteJSON writes the record to path.
func (rec *Record) WriteJSON(path string) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// PrintHeader prints the machine stamp and the run's arguments.
func (rec *Record) PrintHeader(w io.Writer) {
	m := rec.Machine
	mode := "timed"
	if rec.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# wdcperf %s run: seed=%d seconds=%g NumCPU=%d GOMAXPROCS=%d go=%s %s/%s\n",
		mode, rec.Seed, rec.Seconds, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.GOOS, m.GOARCH)
}

// Print writes the result's metrics one per line — name, value, unit, and
// min/median/max over the in-run repeats — then its checks.
func (r *Result) Print(w io.Writer) {
	section := func(kind string, ms []Metric) {
		for _, m := range ms {
			fmt.Fprintf(w, "%-12s %-9s %-30s %14.6g %-6s min %.6g median %.6g max %.6g (n=%d)\n",
				r.Workload, kind, m.Name, m.Value, m.Unit, m.Min(), m.Median(), m.Max(), len(m.samplesOrValue()))
		}
	}
	section("e2e", r.EndToEnd)
	section("layer", r.PerLayer)
	section("detail", r.Detail)
	if r.Fingerprint != "" {
		fmt.Fprintf(w, "%-12s fingerprint %s\n", r.Workload, r.Fingerprint)
	}
	fmt.Fprintf(w, "%-12s checks: attempted=%d failed=%d", r.Workload, r.Attempted, r.Failed)
	if r.Correct() {
		fmt.Fprintln(w, " ok")
		return
	}
	fmt.Fprintf(w, " FAILED:\n  %s\n", strings.Join(r.Failures, "\n  "))
}

// ResultLine is the one-line JSON summary a harness reads from the last line
// of standard output: the end-to-end metrics of a timed run, or the
// per-layer metrics of a traced one.
func (r *Result) ResultLine(traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := r.EndToEnd
	if traced {
		ms = r.PerLayer
	}
	metrics := make(map[string]value, len(ms))
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("bench: %s %s is not finite", r.Workload, m.Name)
		}
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct(), r.Attempted, r.Failed, metrics})
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
