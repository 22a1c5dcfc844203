package harness

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ir"
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

// targetBins lists the servers a query-plane test runs against: in-process,
// and the spawned binary when WDCSERVED_BIN names one.
func targetBins() map[string]string {
	bins := map[string]string{"in-process": ""}
	if bin := os.Getenv("WDCSERVED_BIN"); bin != "" {
		bins["spawned"] = bin
	}
	return bins
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
	for name, bin := range targetBins() {
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

// Burst-test state: updates injected at burstUpdatesAt, the clock advanced
// to burstClock.
const (
	burstUpdatesAt = des.Time(60 * des.Second)
	burstClock     = des.Time(70 * des.Second)
)

// startBurstTarget starts a virtual-clock target running algo and brings it
// to the burst tests' state: three updates, then the clock past them.
func startBurstTarget(t *testing.T, bin, algo string, ioTimeout time.Duration) *Target {
	t.Helper()
	rc := serve.DefaultRuntimeConfig()
	rc.Algo = algo
	tgt, err := Start(bin, serve.Options{Runtime: rc, TCPAddr: "127.0.0.1:0", IOTimeout: ioTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tgt.Close)
	if _, err := tgt.Advance(burstUpdatesAt); err != nil {
		t.Fatal(err)
	}
	for _, item := range []int{3, 5, 7} {
		if _, err := tgt.Inject(item); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tgt.Advance(burstClock); err != nil {
		t.Fatal(err)
	}
	return tgt
}

// frameBytes encodes one request frame.
func frameBytes(op byte, payload []byte) []byte {
	var b bytes.Buffer
	_ = serve.WriteFrame(&b, op, payload)
	return b.Bytes()
}

// mixedBurst is 160 request frames, more than two batches: queries,
// catch-ups inside the retention window, items past NumItems (1000 at
// defaults), and one query with a 2-byte payload.
func mixedBurst() [][]byte {
	var frames [][]byte
	for i := 0; i < 160; i++ {
		switch {
		case i == 77:
			frames = append(frames, []byte{0x00, 0x00, 0x00, 0x03, serve.OpQuery, 0xAB, 0xCD})
		case i%8 == 2:
			since := burstUpdatesAt.Add(-des.Duration(i%3) * des.Second)
			frames = append(frames, frameBytes(serve.OpCatchup, serve.EncodeCatchup(since)))
		case i%8 == 5:
			frames = append(frames, frameBytes(serve.OpQuery, serve.EncodeQuery(1000+i)))
		default:
			frames = append(frames, frameBytes(serve.OpQuery, serve.EncodeQuery(i*7%1000)))
		}
	}
	return frames
}

// readResponse reads the responses to one request frame (an answer and the
// digest it flags, or one report or error) and appends them to dst in wire
// form. It returns the op of the first.
func readResponse(c *Conn, dst *bytes.Buffer) (byte, error) {
	_ = c.nc.SetReadDeadline(time.Now().Add(c.timeout))
	op, payload, err := c.fr.Read()
	if err != nil {
		return 0, err
	}
	_ = serve.WriteFrame(dst, op, payload)
	if op != serve.OpAnswer {
		return op, nil
	}
	_, digestFollows, err := serve.DecodeAnswerFrame(payload)
	if err != nil || !digestFollows {
		return op, err
	}
	dop, payload, err := c.fr.Read()
	if err != nil {
		return op, err
	}
	if dop != serve.OpReport {
		return op, fmt.Errorf("digest flag set but op 0x%02x followed", dop)
	}
	_ = serve.WriteFrame(dst, dop, payload)
	return op, nil
}

// sendBurst writes frames back to back, as one write or one byte per
// write, while reading the responses to every one of them.
func sendBurst(c *Conn, frames [][]byte, bytewise bool) ([]byte, error) {
	burst := bytes.Join(frames, nil)
	werr := make(chan error, 1)
	go func() {
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.timeout))
		if !bytewise {
			_, err := c.nc.Write(burst)
			werr <- err
			return
		}
		for i := range burst {
			if _, err := c.nc.Write(burst[i : i+1]); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	var got bytes.Buffer
	for range frames {
		if _, err := readResponse(c, &got); err != nil {
			return got.Bytes(), err
		}
	}
	return got.Bytes(), <-werr
}

// TestPipelinedBurst pins the query plane's pipelined semantics for every
// scheme. A burst of 160 mixed frames, sent as one write and as one byte per
// write, must draw a response stream byte-identical to the same frames sent
// one at a time to a second target in the same state; each response in
// request order, a digest directly after its answer, and an OpError in place
// for a bad payload or item. The status counters must show the burst served
// in more than two batches but fewer than one per frame. A second burst with
// an unknown op in the middle must draw the answers to every frame before
// it, then OpError, then EOF. It runs in-process, and against a spawned
// binary when WDCSERVED_BIN names one.
func TestPipelinedBurst(t *testing.T) {
	frames := mixedBurst()
	for name, bin := range targetBins() {
		t.Run(name, func(t *testing.T) {
			for _, algo := range ir.Names {
				t.Run(algo, func(t *testing.T) {
					ref := startBurstTarget(t, bin, algo, 0)
					rc, err := Dial(ref.TCPAddr, 5*time.Second)
					if err != nil {
						t.Fatal(err)
					}
					defer rc.Close()
					var want bytes.Buffer
					for i, f := range frames {
						if _, err := rc.nc.Write(f); err != nil {
							t.Fatal(err)
						}
						if _, err := readResponse(rc, &want); err != nil {
							t.Fatalf("frame %d sent alone: %v", i, err)
						}
					}
					if st, err := ref.Status(); err != nil || st.QueryFrames != uint64(len(frames)) || st.QueryBatches != st.QueryFrames {
						t.Fatalf("frames sent one at a time: status %+v, %v; want %d frames in as many batches", st, err, len(frames))
					}

					for _, bytewise := range []bool{false, true} {
						tgt := startBurstTarget(t, bin, algo, 0)
						c, err := Dial(tgt.TCPAddr, 5*time.Second)
						if err != nil {
							t.Fatal(err)
						}
						defer c.Close()
						got, err := sendBurst(c, frames, bytewise)
						if err != nil {
							t.Fatalf("bytewise=%v: %v", bytewise, err)
						}
						if !bytes.Equal(got, want.Bytes()) {
							t.Fatalf("bytewise=%v: burst drew %d response bytes, one at a time %d; first difference at byte %d",
								bytewise, len(got), want.Len(), firstDiff(got, want.Bytes()))
						}
						st, err := tgt.Status()
						if err != nil || st.QueryFrames != uint64(len(frames)) {
							t.Fatalf("bytewise=%v: status %+v, %v; want %d frames", bytewise, st, err, len(frames))
						}
						if !bytewise && (st.QueryBatches < 3 || st.QueryBatches >= st.QueryFrames) {
							t.Fatalf("one write of %d frames served in %d batches", st.QueryFrames, st.QueryBatches)
						}
						if bytewise {
							testUnknownOpMidBurst(t, tgt)
						}
					}
				})
			}
		})
	}
}

// testUnknownOpMidBurst sends 20 queries, an unknown op and 20 more queries
// in one write on a fresh connection.
func testUnknownOpMidBurst(t *testing.T, tgt *Target) {
	t.Helper()
	c, err := Dial(tgt.TCPAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var frames [][]byte
	for i := 0; i < 41; i++ {
		if i == 20 {
			frames = append(frames, frameBytes(0x7E, []byte{1, 2, 3}))
			continue
		}
		frames = append(frames, frameBytes(serve.OpQuery, serve.EncodeQuery(i)))
	}
	if _, err := c.nc.Write(bytes.Join(frames, nil)); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for i := 0; i < 20; i++ {
		if op, err := readResponse(c, &got); err != nil || op != serve.OpAnswer {
			t.Fatalf("query %d before the unknown op: op 0x%02x, %v", i, op, err)
		}
	}
	_ = c.nc.SetReadDeadline(time.Now().Add(c.timeout))
	op, payload, err := c.fr.Read()
	if err != nil || op != serve.OpError || !strings.Contains(string(payload), "unknown op") {
		t.Fatalf("unknown op answered op 0x%02x %q, %v; want OpError", op, payload, err)
	}
	if op, _, err := c.fr.Read(); err != io.EOF {
		t.Fatalf("after the unknown op's OpError: op 0x%02x, %v; want EOF", op, err)
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestPipelinedDeadlines pins the IO deadlines under batching. A burst with
// half a length prefix behind it (what Conn.Stall sends) must have every
// answer delivered and then be cut within IOTimeout plus slack. Three bursts
// 0.6 × IOTimeout apart on one connection must all be served: each read that
// waits for a new frame gets a fresh deadline, where one armed per
// connection would cut the third.
func TestPipelinedDeadlines(t *testing.T) {
	const ioTimeout = time.Second
	var queries [][]byte
	for i := 0; i < 100; i++ {
		queries = append(queries, frameBytes(serve.OpQuery, serve.EncodeQuery(i)))
	}
	for name, bin := range targetBins() {
		t.Run(name, func(t *testing.T) {
			tgt := startBurstTarget(t, bin, "ts", ioTimeout)

			t.Run("stall after a burst", func(t *testing.T) {
				c, err := Dial(tgt.TCPAddr, 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if _, err := c.nc.Write(append(bytes.Join(queries, nil), 0x00, 0x00)); err != nil {
					t.Fatal(err)
				}
				t0 := time.Now()
				var got bytes.Buffer
				for i := range queries {
					if op, err := readResponse(c, &got); err != nil || op != serve.OpAnswer {
						t.Fatalf("answer %d: op 0x%02x, %v", i, op, err)
					}
				}
				_ = c.nc.SetReadDeadline(time.Now().Add(c.timeout))
				if _, _, err := c.fr.Read(); err == nil {
					t.Fatal("server answered a stalled frame")
				}
				if d := time.Since(t0); d < ioTimeout/2 || d > ioTimeout+2*time.Second {
					t.Fatalf("stalled frame cut after %v, want about the %v IO timeout", d, ioTimeout)
				}
			})

			t.Run("bursts on one connection", func(t *testing.T) {
				c, err := Dial(tgt.TCPAddr, 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				for b := 0; b < 3; b++ {
					if b > 0 {
						time.Sleep(ioTimeout * 6 / 10)
					}
					if _, err := sendBurst(c, queries, false); err != nil {
						t.Fatalf("burst %d: %v", b+1, err)
					}
				}
			})
		})
	}
}
