package serve

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/des"
	"repro/internal/ir"
)

// TestShutdownFinalReportKeepsClientsConsistent drives the graceful-shutdown
// contract end to end: a client caches answers, the database moves underneath
// it via injected updates it has not yet heard about, and the server shuts
// down. The farewell catch-up datagram must arrive on the broadcast plane and
// must leave the client with zero stale entries across the restart boundary.
func TestShutdownFinalReportKeepsClientsConsistent(t *testing.T) {
	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()

	rc := DefaultRuntimeConfig()
	rc.Algo = "ts"
	rc.Seed = 42
	rc.DB.NumItems = 32
	rc.DB.HotItems = 8
	rc.DB.UpdateRate = 0 // ingest-only: the test controls every update
	rc.IR.NumItems = rc.DB.NumItems
	rc.IR.Interval = 500 * des.Millisecond

	srv, err := NewServer(Options{Runtime: rc, UDPTarget: udp.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}

	var state ir.ClientState
	c := cache.New(8, rc.DB.NumItems)
	readReports := func(n uint64) {
		buf := make([]byte, 1<<16)
		for i := uint64(0); i < n; i++ {
			_ = udp.SetReadDeadline(time.Now().Add(5 * time.Second))
			m, _, err := udp.ReadFromUDP(buf)
			if err != nil {
				t.Fatalf("datagram %d/%d: %v", i+1, n, err)
			}
			var r ir.Report
			if _, err := DecodeDatagram(buf[:m], &r); err != nil {
				t.Fatal(err)
			}
			state.Process(&r, c, nil, nil)
		}
	}

	// Sync the client to the report stream, then cache a few answers at an
	// instant strictly between report times.
	n, err := srv.AdvanceTo(des.Time(0).Add(des.FromSeconds(1.0)))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no reports in the first virtual second")
	}
	readReports(n)
	if _, err := srv.AdvanceTo(des.Time(0).Add(des.FromSeconds(1.05))); err != nil {
		t.Fatal(err)
	}
	cached := []int{3, 7, 11}
	for _, item := range cached {
		ans, _, err := srv.Query(item)
		if err != nil {
			t.Fatal(err)
		}
		c.Put(ans.Item, ans.Version, ans.AsOf)
	}

	// Move the database underneath the client: two of its entries go stale
	// with no regular report left to announce it.
	if _, err := srv.AdvanceTo(des.Time(0).Add(des.FromSeconds(1.1))); err != nil {
		t.Fatal(err)
	}
	for _, item := range cached[:2] {
		if _, err := srv.Inject(item); err != nil {
			t.Fatal(err)
		}
	}

	// Graceful shutdown: the farewell catch-up datagram must cover the gap.
	srv.Shutdown()
	readReports(1)

	// The actor is stopped; direct runtime reads are safe now.
	asOf := state.LastConsistent
	stale := 0
	c.Range(func(e cache.Entry) bool {
		it := srv.rt.DBItem(e.ID)
		if it.UpdatedAt <= asOf && e.Version != it.Version {
			stale++
		}
		return true
	})
	if stale != 0 {
		t.Fatalf("%d stale entries survived the shutdown report", stale)
	}
	for _, item := range cached[:2] {
		if c.Contains(item) {
			t.Fatalf("item %d was updated after caching and must be invalidated", item)
		}
	}
	if !c.Contains(cached[2]) {
		t.Fatalf("item %d was never updated and must survive", cached[2])
	}

	// Shutdown is idempotent and post-shutdown ops fail cleanly.
	srv.Shutdown()
	if _, _, err := srv.Query(0); err != ErrStopped {
		t.Fatalf("post-shutdown query: %v, want ErrStopped", err)
	}
}

// TestShutdownDrainsInFlightQueries holds a TCP connection open mid-exchange
// while Shutdown runs: a pipelined burst of queries goes out just before it,
// the handler must finish the batch it is serving and write its responses,
// the final report must still go out, and the listener must refuse new work.
// Every response the client receives must be a whole answer frame, in
// request order, and then the connection must close.
func TestShutdownDrainsInFlightQueries(t *testing.T) {
	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()

	rc := DefaultRuntimeConfig()
	rc.DB.NumItems = 16
	rc.DB.HotItems = 4
	rc.IR.NumItems = rc.DB.NumItems
	srv, err := NewServer(Options{
		Runtime:   rc,
		UDPTarget: udp.LocalAddr().String(),
		TCPAddr:   "127.0.0.1:0",
		IOTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, OpQuery, EncodeQuery(5)); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	op, payload, err := fr.Read()
	if err != nil || op != OpAnswer {
		t.Fatalf("op=0x%02x err=%v", op, err)
	}
	if _, _, err := DecodeAnswerFrame(payload); err != nil {
		t.Fatal(err)
	}

	// The burst spans several reads of the handler's buffer, so Shutdown
	// can land between its batches. The client keeps reading throughout.
	const burst = 600
	received := make(chan []byte, 1)
	readErr := make(chan error, 1)
	go func() {
		var b bytes.Buffer
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, err := io.Copy(&b, conn)
		readErr <- err
		received <- b.Bytes()
	}()
	var frames bytes.Buffer
	for i := 0; i < burst; i++ {
		_ = WriteFrame(&frames, OpQuery, EncodeQuery(i%rc.DB.NumItems))
	}
	if _, err := conn.Write(frames.Bytes()); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() { srv.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung on a connection mid-burst")
	}

	// The drained connection is closed, after whole responses in order.
	if err := <-readErr; err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("connection survived shutdown")
		}
	}
	resp := NewFrameReader(bytes.NewReader(<-received))
	answers := 0
	for ; ; answers++ {
		op, payload, err := resp.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("after %d whole answers: %v", answers, err)
		}
		ans, _, err := DecodeAnswerFrame(payload)
		if op != OpAnswer || err != nil || ans.Item != answers%rc.DB.NumItems {
			t.Fatalf("response %d: op 0x%02x, %+v, %v; want the answer for item %d", answers, op, ans, err, answers%rc.DB.NumItems)
		}
	}
	if answers > burst {
		t.Fatalf("%d answers to %d queries", answers, burst)
	}
	t.Logf("%d of %d pipelined queries answered before the connection closed", answers, burst)

	buf := make([]byte, 1<<16)
	_ = udp.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, _, err := udp.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	var r ir.Report
	if _, err := DecodeDatagram(buf[:m], &r); err != nil {
		t.Fatal(err)
	}
	if r.Kind != ir.KindFull {
		t.Fatalf("farewell report kind %v, want full", r.Kind)
	}
}
