package mac

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
)

type ulDelivered struct {
	srcs  []int
	metas []any
	times []des.Time
}

func (d *ulDelivered) fn(src int, meta any, now des.Time) {
	d.srcs = append(d.srcs, src)
	d.metas = append(d.metas, meta)
	d.times = append(d.times, now)
}

func TestUplinkSingleRequest(t *testing.T) {
	sch := des.NewScheduler()
	var got ulDelivered
	cfg := DefaultUplinkConfig()
	cfg.LossProb = 0
	cfg.InitialWindow = 1
	ul := NewUplink(sch, cfg, rng.New(1), got.fn)
	ul.Send(7, "req")
	sch.RunAll()
	if len(got.srcs) != 1 || got.srcs[0] != 7 || got.metas[0] != "req" {
		t.Fatalf("delivery wrong: %+v", got)
	}
	// Sent at t=0: transmits in slot 1 ([4ms, 8ms)), resolves at 8ms.
	if got.times[0] != des.Time(2*cfg.SlotDur) {
		t.Fatalf("delivered at %v", got.times[0])
	}
	s := ul.Stats()
	if s.Sent.Value() != 1 || s.Delivered.Value() != 1 || s.Collisions.Value() != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestUplinkCollisionEventuallyDelivers(t *testing.T) {
	sch := des.NewScheduler()
	var got ulDelivered
	cfg := DefaultUplinkConfig()
	cfg.LossProb = 0
	cfg.InitialWindow = 1
	ul := NewUplink(sch, cfg, rng.New(2), got.fn)
	// Two simultaneous sends land in the same slot and collide.
	ul.Send(1, nil)
	ul.Send(2, nil)
	sch.RunAll()
	if len(got.srcs) != 2 {
		t.Fatalf("delivered %d of 2", len(got.srcs))
	}
	s := ul.Stats()
	if s.Collisions.Value() < 1 {
		t.Fatal("no collision recorded")
	}
	if s.Attempts.Value() < 4 {
		t.Fatalf("attempts %d, expected retries", s.Attempts.Value())
	}
	// The collision forces a retry past the first slot, so neither request
	// can be delivered at the earliest slot end (8 ms).
	for i, at := range got.times {
		if at <= des.Time(2*cfg.SlotDur) {
			t.Fatalf("delivery %d at %v, before any retry could resolve", i, at)
		}
	}
}

func TestUplinkChannelLossRetries(t *testing.T) {
	sch := des.NewScheduler()
	var got ulDelivered
	cfg := DefaultUplinkConfig()
	cfg.LossProb = 0.9 // brutal channel: force several loss-retries
	ul := NewUplink(sch, cfg, rng.New(3), got.fn)
	ul.Send(0, nil)
	sch.RunAll()
	if len(got.srcs) != 1 {
		t.Fatal("request lost forever")
	}
	if ul.Stats().Losses.Value() == 0 {
		t.Fatal("no losses recorded at 90% loss prob")
	}
}

func TestUplinkManyContenders(t *testing.T) {
	sch := des.NewScheduler()
	var got ulDelivered
	cfg := DefaultUplinkConfig()
	cfg.LossProb = 0
	ul := NewUplink(sch, cfg, rng.New(4), got.fn)
	const n = 50
	for i := 0; i < n; i++ {
		ul.Send(i, i)
	}
	sch.RunAll()
	if len(got.srcs) != n {
		t.Fatalf("delivered %d of %d", len(got.srcs), n)
	}
	// Every request delivered exactly once.
	seen := make(map[int]bool)
	for _, src := range got.srcs {
		if seen[src] {
			t.Fatalf("duplicate delivery for %d", src)
		}
		seen[src] = true
	}
}

func TestUplinkDeterminism(t *testing.T) {
	run := func() []des.Time {
		sch := des.NewScheduler()
		var got ulDelivered
		ul := NewUplink(sch, DefaultUplinkConfig(), rng.New(5), got.fn)
		for i := 0; i < 10; i++ {
			i := i
			sch.At(des.Time(i)*des.Time(des.Millisecond), "send", func() { ul.Send(i, nil) })
		}
		sch.RunAll()
		return got.times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different delivery counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestUplinkConfigPanics(t *testing.T) {
	sch := des.NewScheduler()
	bad := []UplinkConfig{
		{SlotDur: 0, InitialWindow: 1, MaxBackoffExp: 1},
		{SlotDur: des.Millisecond, InitialWindow: 0, MaxBackoffExp: 1},
		{SlotDur: des.Millisecond, InitialWindow: 1, MaxBackoffExp: -1},
		{SlotDur: des.Millisecond, InitialWindow: 1, MaxBackoffExp: 1, LossProb: 1},
	}
	for i, cfg := range bad {
		cfg := cfg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d accepted", i)
				}
			}()
			NewUplink(sch, cfg, rng.New(1), func(int, any, des.Time) {})
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("nil deliver accepted")
		}
	}()
	NewUplink(sch, DefaultUplinkConfig(), rng.New(1), nil)
}

// saturatedUplinkRun drives a collapsed request channel on the default
// config: n sources that each send again as soon as their previous request
// is delivered. It folds everything the uplink emits into one FNV-1a hash:
// each delivery (src, meta, time) and each resolved slot's transmitting
// sources in FIFO order, tagged with the slot's resolution time.
func saturatedUplinkRun(n int, horizon des.Time, seed uint64) (uint64, *UplinkStats) {
	sch := des.NewScheduler()
	h := fnv.New64a()
	var buf []byte
	put := func(tag, a, b, c int64) {
		buf = buf[:0]
		for _, v := range [...]int64{tag, a, b, c} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		h.Write(buf)
	}
	var ul *Uplink
	seq := 0
	ul = NewUplink(sch, DefaultUplinkConfig(), rng.New(seed), func(src int, meta any, now des.Time) {
		put(1, int64(src), int64(meta.(int)), int64(now))
		seq++
		ul.Send(src, seq)
	})
	ul.SetAttemptHook(func(srcs []int32) {
		for _, src := range srcs {
			put(2, int64(sch.Now()), int64(src), 0)
		}
	})
	for i := 0; i < n; i++ {
		ul.Send(i, -i)
	}
	sch.Run(horizon)
	return h.Sum64(), ul.Stats()
}

// TestUplinkSaturatedPinned pins a saturated uplink across commits: the
// delivery sequence, the per-slot transmitter lists the attempt hook sees,
// and the counters. Any change to slot order, FIFO order within a slot or
// the order of draws from the uplink's stream moves the hash.
func TestUplinkSaturatedPinned(t *testing.T) {
	sum, st := saturatedUplinkRun(500, des.Time(30*des.Second), 26)
	got := fmt.Sprintf("hash=%016x sent=%d att=%d col=%d loss=%d del=%d", sum,
		st.Sent.Value(), st.Attempts.Value(), st.Collisions.Value(), st.Losses.Value(), st.Delivered.Value())
	const want = "hash=b2d57cd05ea10944 sent=2384 att=18235 col=4763 loss=45 del=1884"
	if got != want {
		t.Errorf("saturated uplink diverged\n got: %s\nwant: %s", got, want)
	}
}

// BenchmarkUplink reports the uplink's cost per slot transmission, attempt
// hook included, in two regimes. light is a paper-default cell: a request
// arrives about once per 8 slots, so most slots carry at most one attempt.
// saturated is the collapsed city: 16 uplinks on one scheduler, each holding
// 12,500 requests that resend on delivery, so 200k attempts stay pending and
// the slot queues outgrow the CPU caches.
func BenchmarkUplink(b *testing.B) {
	b.Run("light", func(b *testing.B) {
		sch := des.NewScheduler()
		cfg := DefaultUplinkConfig()
		ul := NewUplink(sch, cfg, rng.New(1), func(int, any, des.Time) {})
		tx := make([]float64, 100)
		slotSec := cfg.SlotDur.Seconds()
		ul.SetAttemptHook(func(srcs []int32) {
			for _, src := range srcs {
				tx[src] += slotSec
			}
		})
		gaps := rng.New(2)
		meanGap := 8 * float64(cfg.SlotDur)
		now := des.Time(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now = now.Add(des.Duration(gaps.Exp(1/meanGap)) + 1)
			sch.Run(now)
			ul.Send(i%len(tx), nil)
		}
		sch.RunAll()
		reportPerAttempt(b, ul.Stats().Attempts.Value())
	})
	b.Run("saturated", func(b *testing.B) {
		const uplinks, perUplink = 16, 12_500
		sch := des.NewScheduler()
		cfg := DefaultUplinkConfig()
		tx := make([]float64, perUplink)
		slotSec := cfg.SlotDur.Seconds()
		uls := make([]*Uplink, uplinks)
		for k := range uls {
			ul := NewUplink(sch, cfg, rng.New(uint64(k+1)), func(src int, meta any, _ des.Time) {
				uls[k].Send(src, meta)
			})
			ul.SetAttemptHook(func(srcs []int32) {
				for _, src := range srcs {
					tx[src] += slotSec
				}
			})
			for i := 0; i < perUplink; i++ {
				ul.Send(i, nil)
			}
			uls[k] = ul
		}
		// Run long enough for every request to reach the capped backoff
		// window, so the timed slots see the steady collapsed state.
		now := des.Time(16 * des.Second)
		sch.Run(now)
		attempts := func() (n uint64) {
			for _, ul := range uls {
				n += ul.Stats().Attempts.Value()
			}
			return n
		}
		before := attempts()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now = now.Add(cfg.SlotDur)
			sch.Run(now)
		}
		reportPerAttempt(b, attempts()-before)
	})
}

func reportPerAttempt(b *testing.B, attempts uint64) {
	b.StopTimer()
	if attempts > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempts), "ns/attempt")
	}
}
