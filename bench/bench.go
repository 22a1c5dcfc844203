package bench

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// Workloads are the benchmark's workloads, in run order.
var Workloads = []string{"des-paper", "des-city", "served-read", "served-write"}

// Options are the arguments every workload takes.
type Options struct {
	Seed    uint64  // drives every generated input
	Seconds float64 // measured time of one leg of a workload
	// TraceDir, when set, makes the run a traced one: each workload also runs
	// its traced leg and writes its spans and CPU profiles here.
	TraceDir string
	Smoke    bool   // toy scale, for the unit tests
	Self     string // this benchmark's executable, re-executed for DES children
	Server   string // the wdcserved binary the served workloads spawn
}

// Run runs one workload.
func Run(name string, opts *Options) (*Result, error) {
	if opts.TraceDir != "" {
		if err := os.MkdirAll(opts.TraceDir, 0o755); err != nil {
			return nil, err
		}
	}
	switch name {
	case "des-paper", "des-city":
		return runDES(name, opts)
	case "served-read", "served-write":
		return runServed(name, opts)
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %v)", name, Workloads)
}

// BuildServer compiles wdcserved from the module this benchmark builds
// against into dir and returns the binary's path.
func BuildServer(dir string) (string, error) {
	bin := filepath.Join(dir, "wdcserved")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/wdcserved")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("bench: build wdcserved: %w", err)
	}
	return bin, nil
}
