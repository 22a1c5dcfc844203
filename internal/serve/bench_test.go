package serve

import (
	"bufio"
	"net"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/rng"
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

// BenchmarkCatchup times one query-plane catch-up frame in bench's
// served-write shape: 1000 items updated uniformly at 1000 updates/s for
// 2 s, asked since now - 2 s (~865 items, ~10.4 KB per frame). "hit"
// serves every frame at one database version, from the memo; "build"
// injects one update (to an item already listed, so the shape holds) before
// each frame, which then lists the database afresh.
func BenchmarkCatchup(b *testing.B) {
	for _, build := range []bool{false, true} {
		name := "hit"
		if build {
			name = "build"
		}
		b.Run(name, func(b *testing.B) {
			rc := DefaultRuntimeConfig()
			rc.Algo = "hybrid"
			rt, err := NewRuntime(rc, nil)
			if err != nil {
				b.Fatal(err)
			}
			rt.Start()
			src := rng.New(1)
			for i := 1; i <= 2000; i++ {
				if _, err := rt.AdvanceTo(des.Time(i) * des.Time(des.Millisecond)); err != nil {
					b.Fatal(err)
				}
				if _, err := rt.Inject(src.Intn(rc.DB.NumItems)); err != nil {
					b.Fatal(err)
				}
			}
			payload := EncodeCatchup(rt.Now().Add(-2 * des.Second))
			newest := rt.db.UpdatedSince(rt.Now()-1, nil)[0].ID
			var out []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if build {
					_, _ = rt.Inject(newest)
				}
				if out, err = rt.appendResponse(out[:0], OpCatchup, payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if want := rt.Status().CatchupBuilds; build && want < uint64(b.N) || !build && want != 1 {
				b.Fatalf("%d memo builds for %d frames", want, b.N)
			}
		})
	}
}
