package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// fakeEnv turns the test binary into a fake wdcserved: TestMain reads it
// before m.Run and acts out one way the spawn handshake can fail.
const fakeEnv = "HARNESS_FAKE_WDCSERVED"

func TestMain(m *testing.M) {
	switch os.Getenv(fakeEnv) {
	case "":
		os.Exit(m.Run())
	case "silent":
		os.Exit(0)
	case "garbage":
		fmt.Println("listening")
	case "no-http":
		fmt.Println(`{"algo":"ts","clock":"virtual","tcp":"127.0.0.1:1"}`)
	}
	time.Sleep(timeout) // a live daemon: Start must kill it
}

// TestStartHandshakeFailures spawns a missing binary and fake daemons that
// break the address-line handshake. Start must fail each with its own error,
// within the harness timeout.
func TestStartHandshakeFailures(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, bin, mode, want string
	}{
		{"missing binary", filepath.Join(t.TempDir(), "wdcserved"), "", "start"},
		{"exits before printing", self, "silent", "exited before printing its address line"},
		{"non-JSON line", self, "garbage", "bad address line"},
		{"JSON without http", self, "no-http", "bad address line"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv(fakeEnv, tc.mode)
			t0 := time.Now()
			tgt, err := Start(tc.bin, serve.Options{TCPAddr: "127.0.0.1:0"})
			if err == nil {
				tgt.Close()
				t.Fatal("Start accepted a broken daemon")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if d := time.Since(t0); d >= timeout {
				t.Fatalf("Start took %v, past the %v harness timeout", d, timeout)
			}
		})
	}
}
