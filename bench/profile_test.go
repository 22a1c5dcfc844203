package bench

import (
	"bytes"
	"compress/gzip"
	"math"
	"os"
	"testing"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/radio.(*FSMC).Advance":         "radio",
		"repro/internal/rng.(*Batch).Float64":          "rng",
		"repro/internal/serve.(*Server).serveFrame":    "serve",
		"repro/internal/serve/rest.Handler.func3":      "serve",
		"repro/internal/obs.(*Ring).Emit":              "other",
		"runtime.mallocgc":                             "runtime",
		"runtime/internal/syscall.Syscall6":            "syscall",
		"internal/runtime/syscall.Syscall6":            "syscall",
		"syscall.RawSyscall6":                          "syscall",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"math.Exp":                            "math",
		"math/bits.Len64":                     "math",
		"net.(*conn).Write":                   "net",
		"internal/poll.(*FD).Write":           "net",
		"net/http.(*conn).serve":              "net",
		"encoding/binary.bigEndian.PutUint64": "other",
		"main.main":                           "other",
		"sync.(*Mutex).Lock":                  "other",
		"repro/internal/core.(*Simulation).ExecuteCtx.func1": "core",
	} {
		if got := ModuleOf(fn); got != want {
			t.Errorf("ModuleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldProfileGolden folds a committed CPU profile of a short des-city
// child and compares the per-module listing with the committed one.
func TestFoldProfileGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/des-city.cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	f, err := FoldProfile(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if f.SampledSec <= 0 {
		t.Fatalf("no sampled CPU time")
	}
	var total float64
	for _, m := range Modules {
		total += f.Share[m]
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", total)
	}
	const golden = "testdata/des-city.fold.txt"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(f.Listing()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Listing(); got != string(want) {
		t.Fatalf("fold listing changed:\n%s\nwant:\n%s", got, want)
	}
}

func TestFoldProfileRejectsMalformed(t *testing.T) {
	gz := func(b []byte) []byte {
		var buf bytes.Buffer
		w := gzip.NewWriter(&buf)
		_, _ = w.Write(b)
		_ = w.Close()
		return buf.Bytes()
	}
	raw, err := os.ReadFile("testdata/des-city.cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"not gzip":       []byte("plain text"),
		"empty message":  gz(nil),
		"truncated":      gz(body.Bytes()[:body.Len()/2]),
		"bad field key":  gz([]byte{0x80}),
		"bad wire type":  gz([]byte{0x0f}),
		"overlong bytes": gz([]byte{0x0a, 0x7f, 0x01}),
	} {
		if _, err := FoldProfile(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
