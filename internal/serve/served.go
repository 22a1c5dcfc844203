package serve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/serve/capabilities"
)

// Options configures a Server.
type Options struct {
	Runtime RuntimeConfig

	// WallClock maps real time onto the virtual clock (1 µs per µs) and
	// advances it continuously. When false the clock is virtual: it moves
	// only through AdvanceTo — the mode the conformance oracle drives.
	WallClock bool

	// UDPTarget receives every broadcast datagram (EncodeDatagram form);
	// empty disables the broadcast plane.
	UDPTarget string

	// TCPAddr is the uplink query plane's listen address; empty disables it.
	// Use ":0" or "127.0.0.1:0" for an ephemeral port.
	TCPAddr string

	// IOTimeout bounds each blocking read or write on a query connection.
	// Zero means DefaultIOTimeout.
	IOTimeout time.Duration
}

// DefaultIOTimeout is the per-operation deadline on query connections.
const DefaultIOTimeout = 30 * time.Second

// A query connection's batch is the complete frames it has buffered, served
// in one actor op. The batch ends after maxBatchFrames frames, or once its
// responses pass maxBatchBytes, so one connection cannot hold the actor for
// long and a pipeline of large catch-ups is not encoded all at once.
const (
	maxBatchFrames = 64
	maxBatchBytes  = 64 << 10
	readBufSize    = 4 << 10 // a connection's read buffer, grown only for a longer frame
)

// Server hosts a Runtime behind real sockets. All runtime access funnels
// through one actor goroutine, so the engine stays exactly as
// single-threaded as the simulation core; the TCP and HTTP planes are
// concurrent only up to the actor's mailbox.
type Server struct {
	rt   *Runtime
	opts Options

	ops      chan func()
	stopped  chan struct{} // closed when the actor exits
	stopOnce sync.Once

	// queueMax is the deepest the actor mailbox has backed up, measured at
	// each dequeue (the op being taken plus everything still waiting). The
	// load harness reads it to see whether latency lives in the sockets or
	// in the serialization point.
	queueMax atomic.Int64

	// Request frames served on the query plane, and the batches (actor
	// ops) that served them. The actor alone touches them.
	queryFrames, queryBatches uint64

	udp   net.Conn
	tcpLn net.Listener

	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool

	wg        sync.WaitGroup // accept loop + connection handlers
	actorDone sync.WaitGroup
	wallStart time.Time
}

// NewServer builds and starts a server: the runtime's report schedule is
// armed, the planes are bound, and in wall-clock mode the clock begins
// advancing immediately.
func NewServer(opts Options) (*Server, error) {
	s := &Server{
		opts:    opts,
		ops:     make(chan func(), 64),
		stopped: make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
	if opts.IOTimeout <= 0 {
		s.opts.IOTimeout = DefaultIOTimeout
	}
	if opts.UDPTarget != "" {
		conn, err := net.Dial("udp", opts.UDPTarget)
		if err != nil {
			return nil, fmt.Errorf("serve: udp target: %w", err)
		}
		s.udp = conn
	}
	rt, err := NewRuntime(opts.Runtime, s.sinkDatagram)
	if err != nil {
		s.closeSockets()
		return nil, err
	}
	s.rt = rt
	if opts.TCPAddr != "" {
		ln, err := net.Listen("tcp", opts.TCPAddr)
		if err != nil {
			s.closeSockets()
			return nil, fmt.Errorf("serve: tcp listen: %w", err)
		}
		s.tcpLn = ln
		s.wg.Add(1)
		go s.acceptLoop()
	}
	s.actorDone.Add(1)
	go s.actorLoop()
	if err := s.Do(func(rt *Runtime) { rt.Start() }); err != nil {
		return nil, err
	}
	return s, nil
}

// sinkDatagram runs on the actor goroutine (runtime callbacks only happen
// inside ops).
func (s *Server) sinkDatagram(_ int, datagram []byte) {
	if s.udp != nil {
		_, _ = s.udp.Write(datagram)
	}
}

// TCPAddr reports the query plane's bound address, or nil.
func (s *Server) TCPAddr() net.Addr {
	if s.tcpLn == nil {
		return nil
	}
	return s.tcpLn.Addr()
}

// actorLoop serializes runtime access; in wall-clock mode it also drives the
// virtual clock from real time.
func (s *Server) actorLoop() {
	defer s.actorDone.Done()
	var tick *time.Ticker
	var tickC <-chan time.Time
	if s.opts.WallClock {
		s.wallStart = time.Now()
		tick = time.NewTicker(5 * time.Millisecond)
		tickC = tick.C
		defer tick.Stop()
	}
	for {
		select {
		case fn := <-s.ops:
			if depth := int64(len(s.ops)) + 1; depth > s.queueMax.Load() {
				s.queueMax.Store(depth)
			}
			fn()
		case <-tickC:
			// Keep the clock (and scheduled report broadcasts) moving through
			// op-free stretches. The per-op advance may have pushed the clock
			// a hair past the wall; AdvanceTo rejects the backwards ask and
			// the next tick catches up.
			_, _ = s.rt.AdvanceTo(des.Time(time.Since(s.wallStart) / time.Microsecond))
		case <-s.stopped:
			return
		}
	}
}

// stamp opens one op on a wall-clock server: it advances the clock to the
// exact wall microsecond, bumped at least one past the previous stamp. Two
// ops must never share a virtual time, or an answer and an update landing
// in the same tick window become unorderable — a report's
// cached-before-update check and the load harness's truth store both break
// on the tie. Each frame of a query batch is its own op. A virtual clock
// moves only through AdvanceTo, so stamp does nothing there.
func (s *Server) stamp() {
	if !s.opts.WallClock {
		return
	}
	t := des.Time(time.Since(s.wallStart) / time.Microsecond)
	if now := s.rt.Now(); t <= now {
		t = now + 1
	}
	_, _ = s.rt.AdvanceTo(t)
}

// ErrStopped reports an operation against a shut-down server.
var ErrStopped = errors.New("serve: server stopped")

// Do runs fn on the actor goroutine and waits for it.
func (s *Server) Do(fn func(rt *Runtime)) error {
	done := make(chan struct{})
	return s.submit(func() { s.stamp(); fn(s.rt); close(done) }, done)
}

// submit hands op to the actor and waits until op signals done.
func (s *Server) submit(op func(), done <-chan struct{}) error {
	select {
	case s.ops <- op:
	case <-s.stopped:
		return ErrStopped
	}
	select {
	case <-done:
		return nil
	case <-s.stopped:
		return ErrStopped
	}
}

// AdvanceTo advances the virtual clock (virtual-clock mode only), reporting
// how many broadcasts the advance produced.
func (s *Server) AdvanceTo(t des.Time) (broadcasts uint64, err error) {
	if s.opts.WallClock {
		return 0, fmt.Errorf("serve: AdvanceTo on a wall-clock server")
	}
	var aerr error
	if err := s.Do(func(rt *Runtime) { broadcasts, aerr = rt.AdvanceTo(t) }); err != nil {
		return 0, err
	}
	return broadcasts, aerr
}

// Status snapshots the runtime, folding in what only the Server can see:
// the mailbox gauges and the query plane's frame and batch counters.
func (s *Server) Status() (st Status, err error) {
	err = s.Do(func(rt *Runtime) {
		st = rt.Status()
		st.QueueDepth = len(s.ops)
		st.QueueMax = int(s.queueMax.Load())
		st.QueryFrames = s.queryFrames
		st.QueryBatches = s.queryBatches
	})
	return st, err
}

// Caps reports the operations the server offers.
func (s *Server) Caps() (cs capabilities.Set, err error) {
	err = s.Do(func(rt *Runtime) { cs = rt.Caps() })
	return cs, err
}

// Inject applies one externally originated database update.
func (s *Server) Inject(item int) (ans capabilities.Answer, err error) {
	var ierr error
	if err := s.Do(func(rt *Runtime) { ans, ierr = rt.Inject(item) }); err != nil {
		return ans, err
	}
	return ans, ierr
}

// SetSignals pushes the environment signals for the adaptive schemes.
func (s *Server) SetSignals(snrs []float64, load float64) error {
	var serr error
	if err := s.Do(func(rt *Runtime) { serr = rt.SetSignals(snrs, load) }); err != nil {
		return err
	}
	return serr
}

// Query answers one item query (the TCP plane's op, exposed for tests and
// the HTTP plane).
func (s *Server) Query(item int) (ans capabilities.Answer, digest []byte, err error) {
	var qerr error
	if err := s.Do(func(rt *Runtime) { ans, digest, qerr = rt.Query(item) }); err != nil {
		return ans, nil, err
	}
	return ans, digest, qerr
}

// Catchup serves the update history since the given consistency point, in
// wire form. A consistency point past the server's clock is an error: no
// client of this server can have reached it.
func (s *Server) Catchup(since des.Time) (report []byte, err error) {
	if derr := s.Do(func(rt *Runtime) {
		if err = rt.checkSince(since); err == nil {
			report = rt.Catchup(since).Marshal()
		}
	}); derr != nil {
		return nil, derr
	}
	return report, err
}

// Shutdown gracefully stops the server: the listener closes, in-flight
// queries drain (handlers serve the frames they have already read and write
// the responses; idle connections close), a final catch-up report covering
// everything since the last broadcast goes out on the UDP plane, and the
// actor exits. Idempotent.
func (s *Server) Shutdown() {
	s.stopOnce.Do(func() {
		if s.tcpLn != nil {
			_ = s.tcpLn.Close()
		}
		// Wake handlers blocked in a read; the draining flag stops them from
		// arming a fresh read deadline, so their next read fails.
		s.connMu.Lock()
		s.draining = true
		for c := range s.conns {
			_ = c.SetReadDeadline(time.Now())
		}
		s.connMu.Unlock()
		s.wg.Wait()
		_ = s.Do(func(rt *Runtime) { rt.FinalReport() })
		close(s.stopped)
		s.actorDone.Wait()
		s.closeSockets()
	})
}

func (s *Server) closeSockets() {
	if s.udp != nil {
		_ = s.udp.Close()
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.tcpLn.Accept()
		if err != nil {
			return // listener closed
		}
		s.connMu.Lock()
		if s.draining {
			s.connMu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.connMu.Lock()
			delete(s.conns, conn)
			s.connMu.Unlock()
			_ = conn.Close()
		}()
	}
}

// queryConn is one query connection. Its handler goroutine alone touches
// the socket; the actor reads in and appends to out only inside the batch
// op the handler is waiting on.
type queryConn struct {
	nc  net.Conn
	in  []byte // bytes received; in[r:] is not yet served
	r   int
	out []byte // the responses of the batch being served
	err error  // ends the connection once out is written: an unknown op or a bad length prefix

	taken int // frames taken from in so far
	armed int // taken when the read deadline was last armed

	op   func() // the batch op, built once
	done chan struct{}
}

// serveConn serves one query connection: length-prefixed request frames,
// answered in order, a batch at a time. Whenever the buffer holds no
// complete frame it reads from the socket; every complete frame it then
// holds, up to the batch caps, is served in one actor op, and the batch's
// responses leave in one write before the next read. A read that starts
// waiting for a new frame gets a fresh IOTimeout and each write its own, so
// a stalled peer cannot pin the handler; an unknown op or a framing error
// ends the connection after the responses before it (an unknown op gets its
// OpError first), matching the bounded-trust stance of the fault layer.
func (s *Server) serveConn(nc net.Conn) {
	c := &queryConn{nc: nc, armed: -1, done: make(chan struct{}, 1)}
	c.op = func() { s.serveBatch(c); c.done <- struct{}{} }
	for {
		if !c.complete() {
			if c.armed != c.taken {
				if !s.armRead(nc) {
					return
				}
				c.armed = c.taken
			}
			if err := c.fill(); err != nil {
				return
			}
			continue
		}
		if err := s.submit(c.op, c.done); err != nil {
			return
		}
		if len(c.out) > 0 {
			_ = nc.SetWriteDeadline(time.Now().Add(s.opts.IOTimeout))
			if _, err := nc.Write(c.out); err != nil {
				return
			}
		}
		if c.err != nil {
			return
		}
		if cap(c.out) > 2*maxBatchBytes {
			c.out = nil // one huge catch-up does not pin its buffer
		}
	}
}

// armRead gives the connection a fresh read deadline, or reports false once
// the server drains. Holding connMu keeps the fresh deadline from
// overriding the one Shutdown sets to wake a blocked handler.
func (s *Server) armRead(nc net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.draining {
		return false
	}
	_ = nc.SetReadDeadline(time.Now().Add(s.opts.IOTimeout))
	return true
}

// head reports the size, length prefix included, of the frame at the head
// of the buffer once its prefix is in (0 before), and whether all of it is.
// err reports a prefix the batch will reject.
func (c *queryConn) head() (size int, whole bool, err error) {
	b := c.in[c.r:]
	if len(b) < 4 {
		return 0, false, nil
	}
	n, err := frameLen(b)
	if err != nil {
		return 0, false, err
	}
	return 4 + n, len(b) >= 4+n, nil
}

// complete reports whether the buffer starts with a whole frame, or with a
// length prefix the batch will reject.
func (c *queryConn) complete() bool {
	_, whole, err := c.head()
	return whole || err != nil
}

// fill moves the unserved bytes to the front of the buffer and reads more
// behind them. The buffer grows to hold a frame longer than readBufSize and
// shrinks back once that frame is served.
func (c *queryConn) fill() error {
	size, _, _ := c.head()
	size = max(size, readBufSize)
	buf := c.in[:cap(c.in)]
	if cap(buf) != size {
		buf = make([]byte, size)
	}
	k := copy(buf, c.in[c.r:])
	m, err := c.nc.Read(buf[k:])
	c.in, c.r = buf[:k+m], 0
	if m > 0 {
		return nil
	}
	return err
}

// next takes the frame at the head of the buffer when it is whole. Its
// payload aliases the buffer, which the next fill overwrites.
func (c *queryConn) next() (op byte, payload []byte, ok bool, err error) {
	size, whole, err := c.head()
	if !whole {
		return 0, nil, false, err
	}
	b := c.in[c.r : c.r+size]
	c.r += size
	c.taken++
	return b[4], b[5:], true, nil
}

// serveBatch is the actor op of a query connection: it serves the whole
// frames at the head of c's buffer in request order, each stamped as its
// own op, and appends their responses to c.out. It stops at the batch caps,
// at the first frame not yet whole, and at an unknown op or a bad length
// prefix, which it records in c.err.
func (s *Server) serveBatch(c *queryConn) {
	c.out = c.out[:0]
	n := 0
	for n < maxBatchFrames && len(c.out) < maxBatchBytes {
		op, payload, ok, err := c.next()
		if !ok {
			c.err = err
			break
		}
		n++
		s.stamp()
		if c.out, c.err = s.appendResponse(c.out, op, payload); c.err != nil {
			break
		}
	}
	if n > 0 {
		s.queryFrames += uint64(n)
		s.queryBatches++
	}
}

// appendResponse serves one request frame and appends its responses: an
// answer followed directly by the digest riding it, or a catch-up report.
// A bad payload, an item out of range or a catch-up past the clock gets an
// OpError in place, and the connection goes on. Only an unknown op is
// returned as an error, after its OpError: it ends the connection.
func (s *Server) appendResponse(out []byte, op byte, payload []byte) ([]byte, error) {
	switch op {
	case OpQuery:
		item, err := DecodeQuery(payload)
		if err != nil {
			return appendErrorFrame(out, err), nil
		}
		ans, digest, err := s.rt.answer(item)
		if err != nil {
			return appendErrorFrame(out, err), nil
		}
		out = appendAnswerPayload(appendHeader(out, OpAnswer, 25), ans, digest != nil)
		if digest != nil {
			out = appendReportFrame(out, digest)
			s.rt.algo.Recycle(digest)
		}
		return out, nil
	case OpCatchup:
		since, err := DecodeCatchup(payload)
		if err == nil {
			err = s.rt.checkSince(since)
		}
		if err != nil {
			return appendErrorFrame(out, err), nil
		}
		return appendReportFrame(out, s.rt.catchupReply(since)), nil
	}
	err := fmt.Errorf("serve: unknown op 0x%02x", op)
	return appendErrorFrame(out, err), err
}
