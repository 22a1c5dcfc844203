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
			if s.opts.WallClock {
				// Stamp each op at the exact wall microsecond, bumping at
				// least one past the previous stamp: two ops must never share
				// a virtual time, or an answer and an update landing in the
				// same tick window become unorderable — a report's
				// cached-before-update check and the load harness's truth
				// store both break on the tie.
				t := des.Time(time.Since(s.wallStart) / time.Microsecond)
				if now := s.rt.Now(); t <= now {
					t = now + 1
				}
				_, _ = s.rt.AdvanceTo(t)
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

// ErrStopped reports an operation against a shut-down server.
var ErrStopped = errors.New("serve: server stopped")

// Do runs fn on the actor goroutine and waits for it.
func (s *Server) Do(fn func(rt *Runtime)) error {
	done := make(chan struct{})
	select {
	case s.ops <- func() { fn(s.rt); close(done) }:
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

// Status snapshots the runtime, folding in the mailbox gauges only the
// Server can see: the instantaneous queue depth and its high-water mark.
func (s *Server) Status() (st Status, err error) {
	err = s.Do(func(rt *Runtime) {
		st = rt.Status()
		st.QueueDepth = len(s.ops)
		st.QueueMax = int(s.queueMax.Load())
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
// client of this server can have reached it. The comparison is unsigned, as
// the point is on the wire, so a u64 at or above 2^63 (a negative des.Time)
// is past the clock too.
func (s *Server) Catchup(since des.Time) (report []byte, err error) {
	if derr := s.Do(func(rt *Runtime) {
		if now := rt.Now(); uint64(since) > uint64(now) {
			err = fmt.Errorf("serve: catchup since %dµs is past the server clock %v", uint64(since), now)
			return
		}
		report = rt.Catchup(since).Marshal()
	}); derr != nil {
		return nil, derr
	}
	return report, err
}

// Shutdown gracefully stops the server: the listener closes, in-flight
// queries drain (handlers finish the frame they are processing; idle
// connections close), a final catch-up report covering everything since the
// last broadcast goes out on the UDP plane, and the actor exits. Idempotent.
func (s *Server) Shutdown() {
	s.stopOnce.Do(func() {
		if s.tcpLn != nil {
			_ = s.tcpLn.Close()
		}
		// Wake handlers blocked in a read; the draining flag stops them from
		// taking another frame.
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
		go s.handleConn(conn)
	}
}

// handleConn serves one query connection: a loop of length-prefixed request
// frames, each answered before the next is read. Deadlines bound every
// blocking step so a stalled peer cannot pin the handler; a framing or
// protocol error ends the connection (after a best-effort OpError), matching
// the bounded-trust stance of the fault layer.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		_ = conn.Close()
	}()
	fr := NewFrameReader(conn)
	for {
		s.connMu.Lock()
		draining := s.draining
		s.connMu.Unlock()
		if draining {
			return
		}
		_ = conn.SetReadDeadline(time.Now().Add(s.opts.IOTimeout))
		op, payload, err := fr.Read()
		if err != nil {
			return
		}
		if err := s.serveFrame(conn, op, payload); err != nil {
			return
		}
	}
}

// serveFrame dispatches one request frame and writes its response.
func (s *Server) serveFrame(conn net.Conn, op byte, payload []byte) error {
	_ = conn.SetWriteDeadline(time.Now().Add(s.opts.IOTimeout))
	switch op {
	case OpQuery:
		item, err := DecodeQuery(payload)
		if err != nil {
			return writeError(conn, err)
		}
		ans, digest, err := s.Query(item)
		if err != nil {
			return writeError(conn, err)
		}
		if err := WriteFrame(conn, OpAnswer, EncodeAnswerFrame(ans, digest != nil)); err != nil {
			return err
		}
		if digest != nil {
			return WriteFrame(conn, OpReport, digest)
		}
		return nil
	case OpCatchup:
		since, err := DecodeCatchup(payload)
		if err != nil {
			return writeError(conn, err)
		}
		report, err := s.Catchup(since)
		if err != nil {
			return writeError(conn, err)
		}
		return WriteFrame(conn, OpReport, report)
	default:
		_ = writeError(conn, fmt.Errorf("serve: unknown op 0x%02x", op))
		return fmt.Errorf("serve: unknown op")
	}
}

// writeError sends an OpError frame; the connection stays usable only for
// per-request errors (the callers decide by returning the error or nil).
func writeError(conn net.Conn, err error) error {
	_ = WriteFrame(conn, OpError, []byte(err.Error()))
	return nil
}
