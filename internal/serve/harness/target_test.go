package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
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

// TestCatchupPastClockFrame sends hostile frames to a server whose clock is
// past its 10-minute update retention: a catch-up whose u64 since is 2^63
// (negative as a des.Time, so now - since overflows), and queries for items
// at and far past NumItems (1000 at defaults), which would index past the
// database. Each must get OpError rather than crash the server's actor, and
// the same connection must then answer a query. It runs in-process, and
// against a spawned binary when WDCSERVED_BIN names one.
func TestCatchupPastClockFrame(t *testing.T) {
	frames := []struct {
		name  string
		frame []byte
	}{
		{"catch-up since 2^63", []byte{0x00, 0x00, 0x00, 0x09, serve.OpCatchup, 0x80, 0, 0, 0, 0, 0, 0, 0}},
		{"query item 1000", []byte{0x00, 0x00, 0x00, 0x05, serve.OpQuery, 0x00, 0x00, 0x03, 0xE8}},
		{"query item 2^32-1", []byte{0x00, 0x00, 0x00, 0x05, serve.OpQuery, 0xFF, 0xFF, 0xFF, 0xFF}},
	}
	bins := []string{""}
	if bin := os.Getenv("WDCSERVED_BIN"); bin != "" {
		bins = append(bins, bin)
	}
	for _, bin := range bins {
		name := "in-process"
		if bin != "" {
			name = "spawned"
		}
		t.Run(name, func(t *testing.T) {
			tgt, err := Start(bin, serve.Options{Runtime: serve.DefaultRuntimeConfig(), TCPAddr: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			defer tgt.Close()
			if _, err := tgt.Advance(des.Time(11 * des.Minute)); err != nil {
				t.Fatal(err)
			}
			c, err := Dial(tgt.TCPAddr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for _, f := range frames {
				t.Run(f.name, func(t *testing.T) {
					if _, err := c.nc.Write(f.frame); err != nil {
						t.Fatal(err)
					}
					if _, _, err := c.recv(); err == nil || !strings.Contains(err.Error(), "server error") {
						t.Fatalf("hostile frame answered %v, want an OpError", err)
					}
					ans, _, err := c.Query(5)
					if err != nil {
						t.Fatalf("query after the rejected frame: %v", err)
					}
					if ans.Item != 5 || ans.AsOf != des.Time(11*des.Minute) {
						t.Fatalf("query answered %+v", ans)
					}
				})
			}
		})
	}
}
