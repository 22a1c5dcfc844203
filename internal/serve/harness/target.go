package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"syscall"
	"time"

	"repro/internal/des"
	"repro/internal/serve"
	"repro/internal/serve/capabilities"
	"repro/internal/serve/rest"
)

// timeout bounds every wait on a Target: the spawned binary's address line,
// each control-plane request, and graceful shutdown before SIGKILL.
const timeout = 15 * time.Second

// Target is one server under test seen from outside: the address of its TCP
// query plane and a client for its HTTP control plane. The same methods drive
// an in-process serve.Server and a spawned wdcserved binary, so a result
// means the same thing in both modes. The caller owns the UDP listener that
// Options.UDPTarget names. The control-plane methods are safe for
// concurrent use.
type Target struct {
	TCPAddr string // the query plane's bound address, for Dial

	base  string
	hc    *http.Client
	close func()
}

// Start brings up a server configured by opts. An empty bin runs
// serve.NewServer(opts) in-process with its control plane behind httptest.
// Otherwise bin is spawned as wdcserved, opts passed as its flags and the
// control plane on an ephemeral port, and Start parses the JSON address line
// the daemon prints when it is ready.
func Start(bin string, opts serve.Options) (*Target, error) {
	if bin == "" {
		srv, err := serve.NewServer(opts)
		if err != nil {
			return nil, err
		}
		hs := httptest.NewServer(rest.Handler(srv))
		return &Target{TCPAddr: srv.TCPAddr().String(), base: hs.URL, hc: hs.Client(),
			close: func() { hs.Close(); srv.Shutdown() }}, nil
	}
	conf, err := json.Marshal(opts.Runtime)
	if err != nil {
		return nil, err
	}
	clock := "virtual"
	if opts.WallClock {
		clock = "wall"
	}
	cmd := exec.Command(bin,
		"-clock", clock,
		"-udp-target", opts.UDPTarget,
		"-tcp", opts.TCPAddr,
		"-http", "127.0.0.1:0",
		"-io-timeout", opts.IOTimeout.String(),
		"-conf-json", string(conf),
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("harness: start %s: %w", bin, err)
	}
	kill := func() { _ = cmd.Process.Kill(); _ = cmd.Wait() }

	lineCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lineCh <- sc.Text()
		}
		close(lineCh)
	}()
	var line string
	select {
	case l, ok := <-lineCh:
		if !ok {
			kill()
			return nil, fmt.Errorf("harness: %s exited before printing its address line", bin)
		}
		line = l
	case <-time.After(timeout):
		kill()
		return nil, fmt.Errorf("harness: %s did not print its address line", bin)
	}
	var addrs struct {
		TCP  string `json:"tcp"`
		HTTP string `json:"http"`
	}
	if err := json.Unmarshal([]byte(line), &addrs); err != nil || addrs.TCP == "" || addrs.HTTP == "" {
		kill()
		return nil, fmt.Errorf("harness: %s printed a bad address line %q: %v", bin, line, err)
	}
	stop := func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(timeout):
			_ = cmd.Process.Kill()
			<-done
		}
	}
	return &Target{TCPAddr: addrs.TCP, base: "http://" + addrs.HTTP,
		hc: &http.Client{Timeout: timeout}, close: stop}, nil
}

// Close stops the server. A spawned one gets SIGTERM, exercising the
// daemon's graceful-drain path, and is killed if it outlives the timeout.
func (t *Target) Close() { t.close() }

// post sends one control-plane request and decodes the JSON reply into out.
func (t *Target) post(path string, body, out any) error {
	js, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := t.hc.Post(t.base+path, "application/json", bytes.NewReader(js))
	if err != nil {
		return fmt.Errorf("harness: POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("harness: POST %s: %s: %s", path, resp.Status, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Advance moves a virtual-clock target to the given instant and reports how
// many broadcast datagrams the advance produced.
func (t *Target) Advance(to des.Time) (uint64, error) {
	var out struct {
		Broadcasts uint64 `json:"broadcasts"`
	}
	err := t.post("/v1/advance", struct {
		ToUS int64 `json:"to_us"`
	}{int64(to)}, &out)
	return out.Broadcasts, err
}

// Inject applies one database update. The answer carries the item's
// post-update version and update time.
func (t *Target) Inject(item int) (capabilities.Answer, error) {
	var ans capabilities.Answer
	err := t.post("/v1/update", struct {
		Item int `json:"item"`
	}{item}, &ans)
	return ans, err
}

// SetSignals pushes the adaptive schemes' environment signals.
func (t *Target) SetSignals(snrs []float64, load float64) error {
	return t.post("/v1/signals", struct {
		SNRs []float64 `json:"snrs"`
		Load float64   `json:"load"`
	}{snrs, load}, nil)
}

// Status snapshots the server, including the actor-mailbox gauges.
func (t *Target) Status() (serve.Status, error) {
	var st serve.Status
	resp, err := t.hc.Get(t.base + "/v1/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("harness: GET /v1/status: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// Conn is one client's connection to the TCP query plane. Every read and
// write is bounded by the timeout given to Dial, and an OpError reply comes
// back as an error. The payloads Query and Catchup return alias the frame
// buffer: they are valid until the next exchange on the Conn. A Conn is not
// safe for concurrent use.
type Conn struct {
	addr    string
	timeout time.Duration
	nc      net.Conn
	fr      *serve.FrameReader
}

// Dial connects to the query plane at addr.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	c := &Conn{addr: addr, timeout: timeout}
	if err := c.Reconnect(); err != nil {
		return nil, err
	}
	return c, nil
}

// Reconnect dials a fresh connection, abandoning the previous one: what a
// client does after the server cuts a stalled exchange.
func (c *Conn) Reconnect() error {
	c.Close()
	nc, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return err
	}
	c.nc, c.fr = nc, serve.NewFrameReader(nc)
	return nil
}

// Close closes the connection.
func (c *Conn) Close() {
	if c.nc != nil {
		_ = c.nc.Close()
	}
}

// send writes one request frame.
func (c *Conn) send(op byte, payload []byte) error {
	_ = c.nc.SetWriteDeadline(time.Now().Add(c.timeout))
	return serve.WriteFrame(c.nc, op, payload)
}

// recv reads one response frame, turning OpError into an error.
func (c *Conn) recv() (byte, []byte, error) {
	_ = c.nc.SetReadDeadline(time.Now().Add(c.timeout))
	op, payload, err := c.fr.Read()
	if err != nil {
		return 0, nil, err
	}
	if op == serve.OpError {
		return 0, nil, fmt.Errorf("harness: server error: %s", payload)
	}
	return op, payload, nil
}

// Query runs one item query, returning the answer and the piggybacked digest
// when one follows (nil otherwise).
func (c *Conn) Query(item int) (capabilities.Answer, []byte, error) {
	var ans capabilities.Answer
	if err := c.send(serve.OpQuery, serve.EncodeQuery(item)); err != nil {
		return ans, nil, err
	}
	op, payload, err := c.recv()
	if err != nil {
		return ans, nil, err
	}
	if op != serve.OpAnswer {
		return ans, nil, fmt.Errorf("harness: query answered with op 0x%02x", op)
	}
	ans, digestFollows, err := serve.DecodeAnswerFrame(payload)
	if err != nil || !digestFollows {
		return ans, nil, err
	}
	op, payload, err = c.recv()
	if err != nil {
		return ans, nil, err
	}
	if op != serve.OpReport {
		return ans, nil, fmt.Errorf("harness: digest flag set but op 0x%02x followed", op)
	}
	return ans, payload, nil
}

// Catchup requests the update history since the given consistency point and
// returns the unicast report in wire form.
func (c *Conn) Catchup(since des.Time) ([]byte, error) {
	if err := c.send(serve.OpCatchup, serve.EncodeCatchup(since)); err != nil {
		return nil, err
	}
	op, payload, err := c.recv()
	if err != nil {
		return nil, err
	}
	if op != serve.OpReport {
		return nil, fmt.Errorf("harness: catchup answered with op 0x%02x", op)
	}
	return payload, nil
}

// Stall writes half a length prefix and then goes silent, waiting for the
// server to cut the connection at its IO deadline: the wire analogue of a
// query that times out in flight. An answer arriving instead is a protocol
// violation. The Conn needs a Reconnect afterwards.
func (c *Conn) Stall() error {
	_ = c.nc.SetWriteDeadline(time.Now().Add(c.timeout))
	if _, err := c.nc.Write([]byte{0x00, 0x00}); err != nil {
		return err
	}
	_ = c.nc.SetReadDeadline(time.Now().Add(c.timeout))
	if _, _, err := c.fr.Read(); err == nil {
		return fmt.Errorf("harness: server answered a stalled frame")
	}
	return nil
}
