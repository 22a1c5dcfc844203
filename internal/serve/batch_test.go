package serve

import (
	"bytes"
	"testing"

	"repro/internal/des"
)

// TestBatchAllocs bounds what one batch of the query plane allocates: the
// batch op serveBatch, as a connection's handler submits it, over 32 frames
// on a warmed-up virtual-clock hybrid server. Answers, digests and catch-up
// reports are appended to the connection's buffer, the digest goes back to
// the algorithm's arena and every catch-up is copied from the runtime's
// catch-up memo, whose buffers are reused when it is rebuilt, so a batch of
// queries or of catch-ups allocates at most maxAllocs times, not per frame. Before each query batch the clock moves
// one piggyback gap, so every batch's first answer carries a digest.
func TestBatchAllocs(t *testing.T) {
	const maxAllocs = 8
	rc := DefaultRuntimeConfig()
	rc.Algo = "hybrid"
	srv, err := NewServer(Options{Runtime: rc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if _, err := srv.AdvanceTo(des.Time(60 * des.Second)); err != nil {
		t.Fatal(err)
	}
	for item := 0; item < 40; item += 3 {
		if _, err := srv.Inject(item); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.AdvanceTo(des.Time(61 * des.Second)); err != nil {
		t.Fatal(err)
	}

	var queries, catchups bytes.Buffer
	for i := 0; i < 32; i++ {
		_ = WriteFrame(&queries, OpQuery, EncodeQuery(i*31%1000))
		_ = WriteFrame(&catchups, OpCatchup, EncodeCatchup(des.Time(59*des.Second)))
	}
	c := &queryConn{done: make(chan struct{}, 1)}
	c.op = func() { srv.serveBatch(c); c.done <- struct{}{} }
	advance := func() {
		_, _ = srv.rt.AdvanceTo(srv.rt.Now().Add(rc.IR.PiggyMinGap))
		c.done <- struct{}{}
	}
	var digests int
	batch := func(stream []byte, moveClock bool) {
		if moveClock {
			if err := srv.submit(advance, c.done); err != nil {
				t.Fatal(err)
			}
		}
		c.in, c.r = stream, 0
		if err := srv.submit(c.op, c.done); err != nil {
			t.Fatal(err)
		}
		if c.err != nil || c.r != len(stream) {
			t.Fatalf("batch served %d of %d bytes, err %v", c.r, len(stream), c.err)
		}
		if moveClock && c.out[29] == 1 { // the first answer's digest flag
			digests++
		}
	}
	for _, tc := range []struct {
		name   string
		stream []byte
		query  bool
	}{
		{"hybrid queries", queries.Bytes(), true},
		{"catch-ups", catchups.Bytes(), false},
	} {
		for i := 0; i < 4; i++ {
			batch(tc.stream, tc.query) // warm-up
		}
		digests = 0
		allocs := testing.AllocsPerRun(50, func() { batch(tc.stream, tc.query) })
		if allocs > maxAllocs {
			t.Errorf("%s: %.1f allocations per 32-frame batch, want at most %d", tc.name, allocs, maxAllocs)
		}
		if tc.query && digests == 0 {
			t.Errorf("%s: no batch's first answer carried a digest", tc.name)
		}
		t.Logf("%s: %.1f allocations per 32-frame batch", tc.name, allocs)
	}
}
