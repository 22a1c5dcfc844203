package serve

import (
	"bufio"
	"net"
	"testing"
	"time"
)

// BenchmarkQueryPlane measures the query plane end to end over loopback:
// one connection to a wall-clock hybrid server, with 32 queries in flight,
// written and read through the public wire API. It reports ns/query and,
// with -benchmem, the allocations of both ends per query.
func BenchmarkQueryPlane(b *testing.B) {
	const inFlight = 32
	rc := DefaultRuntimeConfig()
	rc.Algo = "hybrid"
	srv, err := NewServer(Options{Runtime: rc, WallClock: true, TCPAddr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown()
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(time.Minute))

	tokens := make(chan struct{}, inFlight)
	for i := 0; i < inFlight; i++ {
		tokens <- struct{}{}
	}
	werr := make(chan error, 1)
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		bw := bufio.NewWriter(conn)
		for sent := 0; sent < b.N; {
			<-tokens
			for n := 1; ; n++ {
				if err := WriteFrame(bw, OpQuery, EncodeQuery(sent%1000)); err != nil {
					werr <- err
					return
				}
				sent++
				if sent == b.N || n == inFlight || len(tokens) == 0 {
					break
				}
				<-tokens
			}
			if err := bw.Flush(); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	fr := NewFrameReader(bufio.NewReader(conn))
	for got := 0; got < b.N; got++ {
		op, payload, err := fr.Read()
		if err != nil || op != OpAnswer {
			b.Fatalf("answer %d: op 0x%02x, %v", got, op, err)
		}
		if _, digestFollows, err := DecodeAnswerFrame(payload); err != nil {
			b.Fatal(err)
		} else if digestFollows {
			if op, _, err := fr.Read(); err != nil || op != OpReport {
				b.Fatalf("digest of answer %d: op 0x%02x, %v", got, op, err)
			}
		}
		tokens <- struct{}{}
	}
	if err := <-werr; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
}
