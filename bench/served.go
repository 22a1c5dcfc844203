package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/des"
	"repro/internal/ir"
	"repro/internal/rng"
	"repro/internal/serve"
)

// Served workloads drive a spawned wdcserved over its real sockets from this
// one process: pipelined TCP query connections (at most NumCPU of them), an
// HTTP connection for updates, and a UDP listener for the broadcast plane.
// The server is a child sharing the machine's cores with the generator.
const (
	servedAlgo      = "hybrid"
	servedItems     = 1000
	servedZipf      = 0.8
	setupSpawns     = 7               // set-ups per run; setup_s is their median
	signalLoad      = 0.1             // pushed downlink load: below LoadLow, so anchors run at IntervalMin
	reportInterval  = 0.2             // s; the broadcast check wants 90% of one report per interval
	catchupLookback = 2 * des.Second  // catch-ups ask for history since last AsOf minus this
	drainTimeout    = 5 * time.Second // in-flight requests still unanswered after this count as failed
	clientIOTimeout = 10 * time.Second
	kneeP99LimitMS  = 5.0
	spanEvery       = 16 // the traced leg keeps spans for one request in this many
	spawnTimeout    = 15 * time.Second
)

// servedShape is one traffic mix against the server.
type servedShape struct {
	conns       int       // TCP query connections
	rate        float64   // open-loop ops/s over all connections
	catchupFrac float64   // share of ops that are catch-up requests
	updateRate  float64   // updates/s posted to /v1/update, from a tenth of the run before the first query; zero for none
	window      int       // requests in flight per connection at saturation
	kneeRates   []float64 // the traced run's open-loop rate ladder
}

func servedShapeFor(name string) (servedShape, error) {
	switch name {
	case "served-read":
		// Per-request cost: queries only, no database history, no reports
		// built on demand.
		return servedShape{conns: 2, rate: 20_000, window: 32,
			kneeRates: []float64{10_000, 20_000, 40_000, 60_000, 80_000, 100_000, 120_000}}, nil
	case "served-write":
		// Writes beside reads: updates keep the history busy and 30% of the
		// ops are catch-ups (≈ 2 s of history each). On a shared 2-CPU
		// machine the open-loop p99 spread 0.2–0.7 between runs at 2000 ops/s
		// and above, and about 0.06 at 1000.
		return servedShape{conns: 1, rate: 1_000, catchupFrac: 0.3, updateRate: 1_000, window: 32,
			kneeRates: []float64{2_500, 5_000, 10_000, 20_000, 30_000, 40_000}}, nil
	}
	return servedShape{}, fmt.Errorf("bench: unknown served workload %q", name)
}

// servedRuntimeConfig is the server's engine configuration: loadgen's runtime
// shape (200 ms interval, 100 ms – 2 s bounds, 20 ms piggyback gap) over a
// 1000-item database that changes only through /v1/update.
func servedRuntimeConfig(seed uint64) serve.RuntimeConfig {
	rc := serve.DefaultRuntimeConfig()
	rc.Algo = servedAlgo
	rc.Seed = seed
	rc.DB.NumItems = servedItems
	rc.DB.ItemBits = 4096
	rc.DB.UpdateRate = 0
	rc.IR.NumItems = servedItems
	rc.IR.Interval = 200 * des.Millisecond
	rc.IR.IntervalMin = 100 * des.Millisecond
	rc.IR.IntervalMax = 2 * des.Second
	rc.IR.PiggyMinGap = 20 * des.Millisecond
	return rc
}

// signalSNRs are the link qualities pushed to /v1/signals at start.
func signalSNRs(seed uint64) []float64 {
	src := rng.Stream(seed, "bench.signals")
	snrs := make([]float64, 8)
	for i := range snrs {
		snrs[i] = src.Uniform(5, 30)
	}
	return snrs
}

// --- the spawned server ---

type server struct {
	cmd  *exec.Cmd
	tcp  string
	base string
	hc   *http.Client
	tr   *http.Transport
}

// spawnServer starts wdcserved on ephemeral loopback ports and reads the
// address line it prints when ready.
func spawnServer(bin string, rc serve.RuntimeConfig, udpTarget string) (*server, error) {
	conf, err := json.Marshal(rc)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-clock", "wall", "-udp-target", udpTarget,
		"-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0", "-conf-json", string(conf))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: start %s: %w", bin, err)
	}
	lineCh := make(chan []byte, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadBytes('\n')
		lineCh <- line
	}()
	var line []byte
	select {
	case line = <-lineCh:
	case <-time.After(spawnTimeout):
	}
	var addrs struct {
		TCP  string `json:"tcp"`
		HTTP string `json:"http"`
	}
	if err := json.Unmarshal(line, &addrs); err != nil || addrs.TCP == "" || addrs.HTTP == "" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("bench: %s ready line %q: %v", bin, line, err)
	}
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &server{cmd: cmd, tcp: addrs.TCP, base: "http://" + addrs.HTTP, tr: tr,
		hc: &http.Client{Transport: tr, Timeout: clientIOTimeout}}, nil
}

// stop shuts the server down with SIGTERM (killing it if it does not exit in
// time) and waits for it.
func (s *server) stop() {
	s.tr.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(spawnTimeout):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

func (s *server) post(path string, body, out any) error {
	js, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := s.hc.Post(s.base+path, "application/json", bytes.NewReader(js))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// get fetches path. It opens its own connection with a deadline of timeout,
// so a long request (a CPU profile) neither holds up nor is cut short by the
// update injector's connection.
func (s *server) get(path string, timeout time.Duration) ([]byte, error) {
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: timeout}
	resp, err := hc.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, nil
}

// setupOnce spawns a server and times what a client waits for before its
// first answer: spawn, ready line, dial, one query answered.
func setupOnce(bin string, rc serve.RuntimeConfig, udpTarget string) (*server, time.Duration, error) {
	t0 := time.Now()
	srv, err := spawnServer(bin, rc, udpTarget)
	if err != nil {
		return nil, 0, err
	}
	err = firstAnswer(srv.tcp)
	d := time.Since(t0)
	if err != nil {
		srv.stop()
		return nil, 0, fmt.Errorf("bench: first answer: %w", err)
	}
	return srv, d, nil
}

func firstAnswer(addr string) error {
	nc, err := net.DialTimeout("tcp", addr, clientIOTimeout)
	if err != nil {
		return err
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(clientIOTimeout))
	if err := serve.WriteFrame(nc, serve.OpQuery, serve.EncodeQuery(0)); err != nil {
		return err
	}
	op, payload, err := serve.NewFrameReader(nc).Read()
	if err != nil {
		return err
	}
	if op != serve.OpAnswer {
		return fmt.Errorf("frame op 0x%02x, want an answer", op)
	}
	_, _, err = serve.DecodeAnswerFrame(payload)
	return err
}

// --- the broadcast plane ---

// udpSink receives and checks every broadcast datagram.
type udpSink struct {
	conn  *net.UDPConn
	done  chan struct{}
	count int64
	bytes int64
	errs  []string
}

func listenUDP() (*udpSink, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	u := &udpSink{conn: conn, done: make(chan struct{})}
	go u.loop()
	return u, nil
}

func (u *udpSink) loop() {
	defer close(u.done)
	buf := make([]byte, 1<<16)
	var rep ir.Report
	for {
		n, _, err := u.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		u.count++
		u.bytes += int64(n)
		if err := CheckDatagram(buf[:n], &rep); err != nil && len(u.errs) < 10 {
			u.errs = append(u.errs, err.Error())
		}
	}
}

// close stops listening once the datagrams already queued (a stopped server's
// farewell report among them) have been read, and waits for the reader.
func (u *udpSink) close() {
	_ = u.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	<-u.done
	_ = u.conn.Close()
}

// --- the query plane ---

const (
	phaseOpen = iota // open loop at the fixed rate: latency from due time
	phaseSat         // saturation: a fixed number in flight per connection
	phaseKnee        // the traced run's rate ladder
)

// latSample is one response's latency from its due time, kept with the due
// time so a phase can be split into windows.
type latSample struct {
	due time.Time
	ms  float64
}

type request struct {
	op    byte
	item  int
	floor uint64 // read-your-write: version an update acknowledged before sending
	phase int
	seq   int64
	due   time.Time
	sent  time.Time
}

// qconn is one pipelined query connection: a writer sends on a schedule while
// a reader matches responses, in order, to the requests still in flight.
type qconn struct {
	nc    net.Conn
	bw    *bufio.Writer
	fifo  chan request // sent, unanswered, oldest first
	sat   chan struct{}
	src   *rng.Source
	zipf  *rng.Zipf
	floor []atomic.Uint64
	spans *Spans

	catchupFrac float64
	seq         int64
	closing     atomic.Bool
	lastAsOf    atomic.Int64
	outstanding atomic.Int64
	completed   atomic.Int64
	readerDone  chan struct{}

	mu           sync.Mutex     // guards the reader's results below
	lat          [3][]latSample // due → response, per phase
	rtt          []float64      // send → answer, µs, open-loop queries
	decode       []float64      // answer frame decode, ns
	catchupBytes []float64
	errFrames    int64
	failures     []string // protocol violations and IO errors; the reader stops at the first
}

// fifoCap bounds the requests one connection keeps in flight: far above the
// saturation window and a second of open-loop backlog at the fixed rates, so
// the writer blocks on it only when the server has stalled.
const fifoCap = 1 << 15

func dialQConn(addr string, src *rng.Source, floor []atomic.Uint64, catchupFrac float64, window int, spans *Spans) (*qconn, error) {
	nc, err := net.DialTimeout("tcp", addr, clientIOTimeout)
	if err != nil {
		return nil, err
	}
	c := &qconn{nc: nc, bw: bufio.NewWriter(nc), fifo: make(chan request, fifoCap),
		sat: make(chan struct{}, window), src: src, zipf: rng.NewZipf(servedItems, servedZipf),
		floor: floor, catchupFrac: catchupFrac, spans: spans, readerDone: make(chan struct{})}
	go c.readLoop()
	return c, nil
}

// send writes one request; it is buffered until the next flush.
func (c *qconn) send(phase int, due time.Time) error {
	c.seq++
	r := request{op: serve.OpQuery, phase: phase, seq: c.seq, due: due}
	r.item = c.zipf.Sample(c.src)
	var payload []byte
	if asOf := c.lastAsOf.Load(); c.catchupFrac > 0 && c.src.Bool(c.catchupFrac) && asOf > 0 {
		r.op = serve.OpCatchup
		since := des.Time(asOf).Add(-catchupLookback)
		if since < 0 {
			since = 0
		}
		payload = serve.EncodeCatchup(since)
	} else {
		r.floor = c.floor[r.item].Load()
		payload = serve.EncodeQuery(r.item)
	}
	r.sent = time.Now()
	c.outstanding.Add(1)
	select {
	case c.fifo <- r:
	case <-c.readerDone:
		return errReaderStopped
	}
	_ = c.nc.SetWriteDeadline(r.sent.Add(clientIOTimeout))
	return serve.WriteFrame(c.bw, r.op, payload)
}

// errReaderStopped ends a writer whose connection's reader has given up; the
// reader has recorded why.
var errReaderStopped = errors.New("bench: query connection reader stopped")

// openLoop sends Poisson arrivals at rate until the deadline, timing each
// request from when it was due; it returns how late each send was, in ms.
func (c *qconn) openLoop(phase int, rate float64, start, until time.Time) ([]float64, error) {
	var late []float64
	next := start
	for next.Before(until) {
		now := time.Now()
		for !next.After(now) && next.Before(until) {
			if err := c.send(phase, next); err != nil {
				return late, err
			}
			late = append(late, float64(time.Since(next))/1e6)
			next = next.Add(time.Duration(c.src.Exp(rate) * 1e9))
		}
		if err := c.bw.Flush(); err != nil {
			return late, err
		}
		if d := time.Until(next); d > 0 && next.Before(until) {
			time.Sleep(d)
		}
	}
	return late, c.bw.Flush()
}

// saturate keeps window requests in flight until the deadline.
func (c *qconn) saturate(until time.Time) error {
	for time.Now().Before(until) {
		select {
		case c.sat <- struct{}{}:
		default:
			if err := c.bw.Flush(); err != nil {
				return err
			}
			select {
			case c.sat <- struct{}{}:
			case <-c.readerDone:
				return errReaderStopped
			}
		}
		if err := c.send(phaseSat, time.Now()); err != nil {
			return err
		}
	}
	return c.bw.Flush()
}

// drain waits until every request sent has been answered or the timeout
// passes.
func (c *qconn) drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for c.outstanding.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

func (c *qconn) readLoop() {
	defer close(c.readerDone)
	fr := serve.NewFrameReader(bufio.NewReader(c.nc))
	var rep ir.Report
	vc := NewVersionCheck()
	for {
		_ = c.nc.SetReadDeadline(time.Now().Add(clientIOTimeout))
		op, payload, err := fr.Read()
		recv := time.Now()
		if err != nil {
			if !c.closing.Load() {
				c.protocolFailure(fmt.Errorf("query connection: %w", err))
			}
			return
		}
		var r request
		select {
		case r = <-c.fifo:
		default:
			c.protocolFailure(fmt.Errorf("unsolicited frame 0x%02x", op))
			return
		}
		var decodeNS float64
		var errFrame bool
		var cbytes int
		switch {
		case op == serve.OpAnswer && r.op == serve.OpQuery:
			t := time.Now()
			ans, digest, err := serve.DecodeAnswerFrame(payload)
			decodeNS = float64(time.Since(t))
			if err == nil {
				err = CheckEcho(r.item, ans)
			}
			if err == nil {
				err = vc.Observe(ans, r.floor)
			}
			if err == nil && digest {
				op, payload, err = fr.Read()
				if err == nil && op != serve.OpReport {
					err = fmt.Errorf("frame 0x%02x where a digest was announced", op)
				}
				if err == nil {
					err = CheckReport(payload, &rep)
				}
			}
			if err != nil {
				c.protocolFailure(err)
				return
			}
			if int64(ans.AsOf) > c.lastAsOf.Load() {
				c.lastAsOf.Store(int64(ans.AsOf))
			}
		case op == serve.OpReport && r.op == serve.OpCatchup:
			cbytes = len(payload)
			if err := CheckReport(payload, &rep); err != nil {
				c.protocolFailure(err)
				return
			}
		case op == serve.OpError:
			errFrame = true
		default:
			c.protocolFailure(fmt.Errorf("frame 0x%02x for request 0x%02x", op, r.op))
			return
		}
		c.mu.Lock()
		if errFrame {
			c.errFrames++
		}
		if r.phase != phaseSat {
			c.lat[r.phase] = append(c.lat[r.phase], latSample{r.due, float64(recv.Sub(r.due)) / 1e6})
		}
		if r.phase == phaseOpen && r.op == serve.OpQuery && !errFrame {
			c.rtt = append(c.rtt, float64(recv.Sub(r.sent))/1e3)
			c.decode = append(c.decode, decodeNS)
		}
		if cbytes > 0 {
			c.catchupBytes = append(c.catchupBytes, float64(cbytes))
		}
		c.mu.Unlock()
		if c.spans != nil && r.phase == phaseOpen && r.seq%spanEvery == 0 {
			name := "request.query"
			if r.op == serve.OpCatchup {
				name = "request.catchup"
			}
			root := c.spans.Add(0, name, r.due, recv)
			c.spans.Add(root, "gen.wait", r.due, r.sent)
			c.spans.Add(root, "wire", r.sent, recv)
			c.spans.Add(root, "client.decode", recv, recv.Add(time.Duration(decodeNS)))
		}
		if r.phase == phaseSat {
			<-c.sat
		}
		c.completed.Add(1)
		c.outstanding.Add(-1)
	}
}

func (c *qconn) protocolFailure(err error) {
	c.mu.Lock()
	c.failures = append(c.failures, err.Error())
	c.mu.Unlock()
}

// close ends the connection and waits for its reader. It may be called
// again.
func (c *qconn) close() {
	c.closing.Store(true)
	_ = c.nc.Close()
	<-c.readerDone
}

// takeLatencies returns and clears the reader's latencies for one phase.
func (c *qconn) takeLatencies(phase int) []latSample {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.lat[phase]
	c.lat[phase] = nil
	return out
}

// --- the update injector ---

// injector posts updates open-loop at a fixed rate over one HTTP connection
// and publishes each acknowledged version as its item's read-your-write
// floor.
type injector struct {
	srv       *server
	floor     []atomic.Uint64
	src       *rng.Source
	rate      float64
	once      sync.Once
	stop      chan struct{}
	done      chan struct{}
	items     []int // acknowledged updates, in order
	attempted int64
	failed    int64
	lastErr   error
}

func startInjector(srv *server, floor []atomic.Uint64, seed uint64, rate float64) *injector {
	in := &injector{srv: srv, floor: floor, src: rng.Stream(seed, "bench.inject"), rate: rate,
		stop: make(chan struct{}), done: make(chan struct{})}
	go in.loop()
	return in
}

func (in *injector) loop() {
	defer close(in.done)
	next := time.Now()
	for {
		if d := time.Until(next); d > 0 {
			select {
			case <-in.stop:
				return
			case <-time.After(d):
			}
		}
		select {
		case <-in.stop:
			return
		default:
		}
		item := in.src.Intn(servedItems)
		in.attempted++
		var ans struct {
			Item    int    `json:"item"`
			Version uint64 `json:"version"`
		}
		if err := in.srv.post("/v1/update", map[string]int{"item": item}, &ans); err != nil {
			in.failed++
			in.lastErr = err
		} else {
			if ans.Version > in.floor[item].Load() {
				in.floor[item].Store(ans.Version)
			}
			in.items = append(in.items, item)
		}
		next = next.Add(time.Duration(in.src.Exp(in.rate) * 1e9))
	}
}

// halt stops the injector and waits for it. It may be called again.
func (in *injector) halt() {
	in.once.Do(func() { close(in.stop) })
	<-in.done
}

// --- one leg: a fresh server driven through both phases ---

type servedLeg struct {
	setups      []float64 // s
	satRates    []float64 // ops/s per saturation window
	openP50     []float64 // ms from due time, per open-loop window
	openP99     []float64 // ms from due time, per open-loop window
	openLat     []float64 // ms from due time, whole open-loop phase
	lateness    []float64 // ms
	rtt         []float64 // µs
	decode      []float64 // ns
	catchup     []float64 // bytes
	peakRSS     float64
	status      serve.Status
	runSec      float64
	datagrams   int64
	dgramBytes  int64
	attempted   int64
	failed      int64
	failures    []string
	updates     []int
	knee        float64
	profileCPU  float64 // server CPU seconds over the profiled window
	satCPU      float64 // server CPU seconds over the saturation phase
	satOps      float64 // ops completed in the saturation phase
	satWall     float64 // s
	profilePath string
}

// runServedLeg spawns a server and drives one leg. A traced leg records
// request spans, takes the server's CPU profile during saturation into
// profilePath, and climbs the knee ladder at the end.
func runServedLeg(sh servedShape, opts *Options, spans *Spans, profilePath string) (*servedLeg, error) {
	traced := profilePath != ""
	leg := &servedLeg{profilePath: profilePath}
	rc := servedRuntimeConfig(opts.Seed)
	udp, err := listenUDP()
	if err != nil {
		return nil, err
	}
	target := udp.conn.LocalAddr().String()
	var srv *server
	for i := 0; i < setupSpawns; i++ {
		t0 := time.Now()
		s, d, err := setupOnce(opts.Server, rc, target)
		if err != nil {
			udp.close()
			return nil, err
		}
		spans.Add(0, "served.setup", t0, t0.Add(d))
		leg.setups = append(leg.setups, d.Seconds())
		if i < setupSpawns-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	err = driveServer(leg, sh, opts, srv, spans, traced)
	var rssErr error
	leg.peakRSS, rssErr = peakRSSMiB(srv.cmd.Process.Pid)
	srv.stop()
	udp.close()
	leg.datagrams, leg.dgramBytes = udp.count, udp.bytes
	leg.failures = append(leg.failures, udp.errs...)
	if err = errors.Join(err, rssErr); err != nil {
		return nil, err
	}
	return leg, nil
}

// driveServer runs the phases against a ready server and collects the
// connections' and the injector's counts and failures.
func driveServer(leg *servedLeg, sh servedShape, opts *Options, srv *server, spans *Spans, traced bool) error {
	ready := time.Now()
	if err := srv.post("/v1/signals", map[string]any{"snrs": signalSNRs(opts.Seed), "load": signalLoad}, nil); err != nil {
		return fmt.Errorf("bench: signals: %w", err)
	}
	floor := make([]atomic.Uint64, servedItems)
	var in *injector
	if sh.updateRate > 0 {
		in = startInjector(srv, floor, opts.Seed, sh.updateRate)
		defer in.halt()
		t0 := time.Now()
		time.Sleep(time.Duration(opts.Seconds / 10 * 1e9))
		spans.Add(0, "served.prefill", t0, time.Now())
	}
	conns := make([]*qconn, sh.conns)
	for i := range conns {
		var cs *Spans
		if traced {
			cs = spans
		}
		c, err := dialQConn(srv.tcp, rng.Stream(opts.Seed, "bench.conn"+strconv.Itoa(i)), floor, sh.catchupFrac, sh.window, cs)
		if err != nil {
			return err
		}
		defer c.close() // on error paths; the normal path closes first to read the results
		conns[i] = c
	}

	err := runPhases(leg, sh, opts, srv, conns, spans, traced, ready)
	if in != nil {
		in.halt()
		leg.updates = in.items
		leg.attempted += in.attempted
		leg.failed += in.failed
		if in.lastErr != nil {
			leg.failures = append(leg.failures, fmt.Sprintf("update: %v", in.lastErr))
		}
	}
	for _, c := range conns {
		c.close()
		c.mu.Lock()
		leg.attempted += c.seq
		leg.failed += c.errFrames + c.outstanding.Load() // error answers, and requests never answered
		leg.catchup = append(leg.catchup, c.catchupBytes...)
		leg.failures = append(leg.failures, c.failures...)
		c.mu.Unlock()
	}
	return err
}

// runPhases drives the open loop, the saturation windows and, traced, the
// knee ladder, then reads the server's status. A failure on the query plane
// is recorded in leg (the run is then incorrect) and ends the phases early;
// the returned error is for the benchmark's own failures.
func runPhases(leg *servedLeg, sh servedShape, opts *Options, srv *server, conns []*qconn, spans *Spans, traced bool, ready time.Time) error {
	openDur, satDur := phaseDurations(opts.Seconds)
	t0 := time.Now()
	lates, err := eachConn(conns, func(c *qconn) ([]float64, error) {
		return c.openLoop(phaseOpen, sh.rate/float64(len(conns)), t0, t0.Add(openDur))
	})
	if err != nil {
		leg.failures = append(leg.failures, fmt.Sprintf("open loop: %v", err))
		return nil
	}
	drainAll(conns)
	spans.Add(0, "served.open_loop", t0, time.Now())
	leg.lateness = lates
	var open []latSample
	for _, c := range conns {
		open = append(open, c.takeLatencies(phaseOpen)...)
		c.mu.Lock()
		leg.rtt = append(leg.rtt, c.rtt...)
		leg.decode = append(leg.decode, c.decode...)
		c.mu.Unlock()
	}
	leg.openLat = latencyMS(open)
	for _, w := range splitWindows(open, t0, openDur, openWindows) {
		leg.openP50 = append(leg.openP50, quantile(w, 0.5))
		leg.openP99 = append(leg.openP99, quantile(w, 0.99))
	}

	// Saturation, in windows; the traced leg profiles the server across
	// them and reads its CPU time around the profile.
	winDur := satDur / satWindows
	pid := srv.cmd.Process.Pid
	var profErr error
	var profWG sync.WaitGroup
	defer profWG.Wait() // an error path must not leave the fetch writing into leg
	var cpuA, cpuB float64
	if traced {
		profWG.Add(1)
		go func() {
			defer profWG.Done()
			secs := int(math.Max(1, math.Floor(satDur.Seconds())))
			a, _ := procCPUSec(pid)
			data, err := srv.get("/debug/pprof/profile?seconds="+strconv.Itoa(secs),
				time.Duration(secs)*time.Second+clientIOTimeout)
			b, _ := procCPUSec(pid)
			if err == nil {
				err = os.WriteFile(leg.profilePath, data, 0o644)
			}
			cpuA, cpuB, profErr = a, b, err
		}()
	}
	satCPU0, _ := procCPUSec(pid)
	t1 := time.Now()
	var satWG sync.WaitGroup
	satErrs := make([]error, len(conns))
	for i, c := range conns {
		satWG.Add(1)
		go func(i int, c *qconn) {
			defer satWG.Done()
			satErrs[i] = c.saturate(t1.Add(satDur))
		}(i, c)
	}
	prev := completedAll(conns)
	for w := 0; w < satWindows; w++ {
		time.Sleep(time.Until(t1.Add(time.Duration(w+1) * winDur)))
		now := completedAll(conns)
		leg.satRates = append(leg.satRates, float64(now-prev)/winDur.Seconds())
		prev = now
	}
	satWG.Wait()
	leg.satWall = time.Since(t1).Seconds()
	satCPU1, _ := procCPUSec(pid)
	leg.satCPU = satCPU1 - satCPU0
	leg.satOps = sum(leg.satRates) * winDur.Seconds()
	if err := errors.Join(satErrs...); err != nil {
		leg.failures = append(leg.failures, fmt.Sprintf("saturation: %v", err))
		return nil
	}
	drainAll(conns)
	spans.Add(0, "served.saturation", t1, time.Now())
	profWG.Wait()
	if profErr != nil {
		return fmt.Errorf("bench: server profile: %w", profErr)
	}
	leg.profileCPU = cpuB - cpuA

	st, err := srv.get("/v1/status", clientIOTimeout)
	if err != nil {
		return fmt.Errorf("bench: status: %w", err)
	}
	if err := json.Unmarshal(st, &leg.status); err != nil {
		return fmt.Errorf("bench: status: %w", err)
	}
	leg.runSec = time.Since(ready).Seconds()

	if traced {
		t2 := time.Now()
		leg.knee = kneeLadder(conns, sh.kneeRates, opts.Seconds)
		spans.Add(0, "served.knee", t2, time.Now())
	}
	return nil
}

// A run's measured time is 40% open loop, split into openWindows windows
// for the latency percentiles, then 60% saturation, split into satWindows
// windows for the completion rate.
const (
	openWindows = 8
	satWindows  = 6
)

func phaseDurations(seconds float64) (open, saturation time.Duration) {
	total := time.Duration(seconds * 1e9)
	return total * 2 / 5, total * 3 / 5
}

// splitWindows buckets latency samples by due time into n equal windows of
// the phase [start, start+dur), returning each window's latencies in ms.
func splitWindows(samples []latSample, start time.Time, dur time.Duration, n int) [][]float64 {
	out := make([][]float64, n)
	for _, s := range samples {
		w := int(int64(n) * int64(s.due.Sub(start)) / int64(dur))
		if w >= 0 && w < n {
			out[w] = append(out[w], s.ms)
		}
	}
	return out
}

func latencyMS(samples []latSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ms
	}
	return out
}

// eachConn runs fn on every connection concurrently and concatenates what
// they return.
func eachConn(conns []*qconn, fn func(*qconn) ([]float64, error)) ([]float64, error) {
	outs := make([][]float64, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *qconn) {
			defer wg.Done()
			outs[i], errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	var all []float64
	for _, o := range outs {
		all = append(all, o...)
	}
	return all, errors.Join(errs...)
}

func drainAll(conns []*qconn) {
	for _, c := range conns {
		c.drain(drainTimeout)
	}
}

func completedAll(conns []*qconn) int64 {
	var n int64
	for _, c := range conns {
		n += c.completed.Load()
	}
	return n
}

// kneeLadder offers each rate of the ladder open-loop for a short step and
// returns the highest rate whose p99 from due time stays under the limit
// with no backlog left at the end of the step. Diagnostic only: its
// run-to-run spread is too wide to gate on.
func kneeLadder(conns []*qconn, rates []float64, seconds float64) float64 {
	step := time.Duration(seconds / 20 * 1e9)
	if step < 100*time.Millisecond {
		step = 100 * time.Millisecond
	}
	var knee float64
	for _, rate := range rates {
		sent0 := completedAll(conns)
		t0 := time.Now()
		lates, err := eachConn(conns, func(c *qconn) ([]float64, error) {
			return c.openLoop(phaseKnee, rate/float64(len(conns)), t0, t0.Add(step))
		})
		var backlog int64
		for _, c := range conns {
			backlog += c.outstanding.Load()
		}
		drainAll(conns)
		var lat []float64
		for _, c := range conns {
			lat = append(lat, latencyMS(c.takeLatencies(phaseKnee))...)
		}
		done := completedAll(conns) - sent0
		if err != nil || done == 0 || float64(backlog) > 0.05*float64(len(lates)) ||
			quantile(lat, 0.99) > kneeP99LimitMS {
			break
		}
		knee = rate
	}
	return knee
}

// runServed runs one served workload: a timed leg, and for a traced run a
// second, traced leg on a fresh server plus the in-process stage probes.
func runServed(name string, opts *Options) (*Result, error) {
	sh, err := servedShapeFor(name)
	if err != nil {
		return nil, err
	}
	timed, err := runServedLeg(sh, opts, nil, "")
	if err != nil {
		return nil, err
	}
	res := &Result{Workload: name, Attempted: timed.attempted, Failed: timed.failed, Failures: timed.failures}
	if err := CheckBroadcasts(timed.status.Broadcasts, timed.runSec, reportInterval); err != nil {
		res.fail("%v", err)
	}
	res.EndToEnd = []Metric{
		steadyMetric("throughput_per_s", "1/s", timed.satRates, true),
		steadyMetric("p50_ms", "ms", timed.openP50, false),
		steadyMetric("p99_ms", "ms", timed.openP99, false),
		{Name: "peak_rss_mib", Unit: "MiB", Value: timed.peakRSS},
		medianMetric("setup_s", "s", timed.setups),
	}
	res.Detail = clientMetrics(timed)
	if opts.TraceDir == "" {
		return res, nil
	}

	spans := NewSpans()
	traced, err := runServedLeg(sh, opts, spans, filepath.Join(opts.TraceDir, name+".server.cpu.pprof"))
	if err != nil {
		return nil, err
	}
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Failures = append(res.Failures, traced.failures...)
	layers, err := profileLayers(traced.profilePath, traced.profileCPU)
	if err != nil {
		return nil, err
	}
	timedRate, tracedRate := quantile(timed.satRates, 0.5), quantile(traced.satRates, 0.5)
	res.PerLayer = append(layers,
		Metric{Name: "trace.overhead_pct", Unit: "%", Value: 100 * (timedRate - tracedRate) / timedRate},
		Metric{Name: "sut.cpu_per_wall", Unit: "ratio", Value: traced.satCPU / traced.satWall},
		Metric{Name: "sut.cpu_ns_per_op", Unit: "ns", Value: 1e9 * traced.satCPU / traced.satOps},
	)
	res.Detail = append(res.Detail,
		Metric{Name: "client.p999_ms", Unit: "ms", Value: quantile(timed.openLat, 0.999)},
		Metric{Name: "gen.knee_ops_per_s", Unit: "ops/s", Value: traced.knee},
		Metric{Name: "serve.broadcasts", Unit: "count", Value: float64(timed.status.Broadcasts)},
		Metric{Name: "serve.actor_queue_max", Unit: "count", Value: float64(timed.status.QueueMax)},
		Metric{Name: "serve.queries_served", Unit: "count", Value: float64(timed.status.QueriesServed)},
		Metric{Name: "serve.updates_applied", Unit: "count", Value: float64(timed.status.UpdatesApplied)},
		Metric{Name: "ir.broadcast_bytes_mean", Unit: "B", Value: ratio(float64(timed.dgramBytes), float64(timed.datagrams))},
	)
	if len(timed.catchup) > 0 {
		res.Detail = append(res.Detail, Metric{Name: "ir.catchup_bytes_mean", Unit: "B", Value: sum(timed.catchup) / float64(len(timed.catchup))})
	}
	probes, err := stageProbes(sh, opts.Seed, timed.updates, quantile(timed.rtt, 0.5))
	if err != nil {
		return nil, err
	}
	res.Detail = append(res.Detail, probes...)
	return res, spans.WriteJSONL(filepath.Join(opts.TraceDir, name+".spans.jsonl"))
}

// clientMetrics are the generator's and client's own spans: how late the
// generator sent, the round trip from the actual send, and answer decoding.
func clientMetrics(leg *servedLeg) []Metric {
	return []Metric{
		{Name: "gen.lateness_p50_ms", Unit: "ms", Value: quantile(leg.lateness, 0.5)},
		{Name: "gen.lateness_p99_ms", Unit: "ms", Value: quantile(leg.lateness, 0.99)},
		{Name: "client.rtt_p50_us", Unit: "us", Value: quantile(leg.rtt, 0.5)},
		{Name: "client.rtt_p99_us", Unit: "us", Value: quantile(leg.rtt, 0.99)},
		{Name: "client.decode_ns", Unit: "ns", Value: quantile(leg.decode, 0.5)},
		{Name: "fail_ratio", Unit: "ratio", Value: ratio(float64(leg.failed), float64(leg.attempted))},
	}
}
