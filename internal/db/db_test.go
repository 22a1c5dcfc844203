package db

import (
	"math"
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
)

func newDB(t *testing.T, cfg Config, seed uint64) (*DB, *des.Scheduler) {
	t.Helper()
	sch := des.NewScheduler()
	d, err := New(sch, cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return d, sch
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mut := []func(*Config){
		func(c *Config) { c.NumItems = 0 },
		func(c *Config) { c.ItemBits = 0 },
		func(c *Config) { c.UpdateRate = -1 },
		func(c *Config) { c.HotItems = -1 },
		func(c *Config) { c.HotItems = c.NumItems + 1 },
		func(c *Config) { c.HotFraction = 1.5 },
		func(c *Config) { c.HotItems = 0 },
		func(c *Config) { c.HotItems = c.NumItems; c.HotFraction = 0.5 },
		func(c *Config) { c.Retention = 0 },
	}
	for i, f := range mut {
		c := DefaultConfig()
		f(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestApplyUpdateVersions(t *testing.T) {
	d, sch := newDB(t, DefaultConfig(), 1)
	sch.After(des.Second, "u", func() { d.ApplyUpdate(7) })
	sch.After(2*des.Second, "u", func() { d.ApplyUpdate(7) })
	sch.RunAll()
	it := d.Item(7)
	if it.Version != 2 {
		t.Fatalf("version %d", it.Version)
	}
	if it.UpdatedAt != des.Time(0).Add(2*des.Second) {
		t.Fatalf("updatedAt %v", it.UpdatedAt)
	}
	if d.Item(8).Version != 0 {
		t.Fatal("unrelated item mutated")
	}
	if d.Updates() != 2 {
		t.Fatalf("updates %d", d.Updates())
	}
}

func TestUpdateRateAndHotSkew(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UpdateRate = 20
	d, sch := newDB(t, cfg, 2)
	d.Start()
	d.Start() // idempotent
	sch.Run(des.Time(0).Add(500 * des.Second))
	got := float64(d.Updates()) / 500
	if math.Abs(got-20)/20 > 0.1 {
		t.Fatalf("update rate %v, want ~20", got)
	}
	// ~80% of updates must land on the 50 hot items.
	hot := uint64(0)
	for i := 0; i < cfg.NumItems; i++ {
		if i < cfg.HotItems {
			hot += d.Item(i).Version
		}
	}
	frac := float64(hot) / float64(d.Updates())
	if math.Abs(frac-0.8) > 0.03 {
		t.Fatalf("hot fraction %v, want ~0.8", frac)
	}
}

func TestStop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UpdateRate = 100
	d, sch := newDB(t, cfg, 3)
	d.Start()
	sch.After(des.Second, "stop", d.Stop)
	sch.Run(des.Time(0).Add(10 * des.Second))
	n := d.Updates()
	sch.Run(des.Time(0).Add(20 * des.Second))
	if d.Updates() != n {
		t.Fatal("updates after Stop")
	}
}

func TestUpdateHook(t *testing.T) {
	d, sch := newDB(t, DefaultConfig(), 4)
	var ids []int
	d.SetUpdateHook(func(id int, now des.Time) { ids = append(ids, id) })
	sch.After(des.Second, "u", func() { d.ApplyUpdate(3); d.ApplyUpdate(9) })
	sch.RunAll()
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 9 {
		t.Fatalf("hook saw %v", ids)
	}
}

func TestUpdatedSinceDedupesToLatest(t *testing.T) {
	d, sch := newDB(t, DefaultConfig(), 5)
	sch.After(1*des.Second, "u", func() { d.ApplyUpdate(5) })
	sch.After(2*des.Second, "u", func() { d.ApplyUpdate(6) })
	sch.After(3*des.Second, "u", func() { d.ApplyUpdate(5) })
	sch.Run(des.Time(0).Add(4 * des.Second))
	got := d.UpdatedSince(des.Time(0), nil)
	if len(got) != 2 {
		t.Fatalf("entries %v", got)
	}
	// Newest-first scan: item 5 first with its LATEST time.
	if got[0].ID != 5 || got[0].At != des.Time(0).Add(3*des.Second) {
		t.Fatalf("got[0] = %+v", got[0])
	}
	if got[1].ID != 6 {
		t.Fatalf("got[1] = %+v", got[1])
	}
	// A later window excludes older updates.
	got = d.UpdatedSince(des.Time(0).Add(2*des.Second), nil)
	if len(got) != 1 || got[0].ID != 5 {
		t.Fatalf("windowed %v", got)
	}
	// Boundary is exclusive at `since`.
	got = d.UpdatedSince(des.Time(0).Add(3*des.Second), nil)
	if len(got) != 0 {
		t.Fatalf("exclusive boundary violated: %v", got)
	}
}

func TestUpdatedSinceAppendsToBuf(t *testing.T) {
	d, sch := newDB(t, DefaultConfig(), 6)
	sch.After(des.Second, "u", func() { d.ApplyUpdate(1) })
	sch.RunAll()
	buf := make([]Update, 0, 8)
	out := d.UpdatedSince(des.Time(0), buf)
	if len(out) != 1 || cap(out) != 8 {
		t.Fatalf("buffer reuse broken: len=%d cap=%d", len(out), cap(out))
	}
}

func TestRetentionPruningAndPanic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UpdateRate = 1000
	cfg.Retention = 10 * des.Second
	d, sch := newDB(t, cfg, 7)
	d.Start()
	sch.Run(des.Time(0).Add(110 * des.Second))
	// The index is bounded by the item count, not rate × retention.
	if d.Updates() < 100_000 || len(d.log) > 2*cfg.NumItems {
		t.Fatalf("index holds %d entries for %d items after %d updates", len(d.log), cfg.NumItems, d.Updates())
	}
	// Recent window works.
	_ = d.UpdatedSince(sch.Now().Add(-5*des.Second), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("beyond-retention query must panic")
		}
	}()
	_ = d.UpdatedSince(des.Time(0), nil)
}

func TestUpdatedSinceWithinRetentionAtStart(t *testing.T) {
	// Early in the run, asking since t=0 is fine even though 0 is "before"
	// now-retention in unsigned arithmetic terms.
	cfg := DefaultConfig()
	cfg.Retention = des.Minute
	d, sch := newDB(t, cfg, 8)
	sch.After(des.Second, "u", func() { d.ApplyUpdate(0) })
	sch.Run(des.Time(0).Add(2 * des.Second))
	if got := d.UpdatedSince(des.Time(0), nil); len(got) != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		cfg := DefaultConfig()
		cfg.UpdateRate = 30
		d, sch := newDB(t, cfg, 99)
		d.Start()
		sch.Run(des.Time(0).Add(100 * des.Second))
		out := make([]uint64, cfg.NumItems)
		for i := range out {
			out[i] = d.Item(i).Version
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at item %d", i)
		}
	}
}

// historyScan is the update history the index replaced, kept as the
// reference the index is checked against: every update in order, pruned to
// the retention horizon at each update, scanned newest first with the first
// sighting of an id carrying its latest update time.
type historyScan struct {
	retention des.Duration
	history   []Update
}

func (h *historyScan) apply(id int, now des.Time) {
	h.history = append(h.history, Update{ID: id, At: now})
	cut := now.Add(-h.retention)
	head := 0
	for head < len(h.history) && h.history[head].At < cut {
		head++
	}
	h.history = h.history[head:]
}

// updatedSince panics as UpdatedSince does.
func (h *historyScan) updatedSince(since, now des.Time) []Update {
	if horizon := now.Add(-h.retention); since < horizon && now > des.Time(h.retention) {
		panic("beyond retention")
	}
	seen := map[int]bool{}
	var out []Update
	for i := len(h.history) - 1; i >= 0 && h.history[i].At > since; i-- {
		if u := h.history[i]; !seen[u.ID] {
			seen[u.ID] = true
			out = append(out, u)
		}
	}
	return out
}

// TestUpdatedSinceMatchesHistoryScan drives the index and the history scan
// it replaced through random update schedules — hot/cold skew, several
// updates on one microsecond, gaps past the retention, Resets with and
// without a size change — and asks both the same windows, through the DB
// and through a lane View whose clock runs ahead of the database's: every
// answer must list the same items, times and order, and both must panic on
// the same windows.
func TestUpdatedSinceMatchesHistoryScan(t *testing.T) {
	src := rng.New(11)
	cfg := DefaultConfig()
	cfg.NumItems, cfg.HotItems, cfg.UpdateRate = 60, 6, 0
	cfg.Retention = 2 * des.Second
	d, sch := newDB(t, cfg, 12)
	ref := &historyScan{retention: cfg.Retention}
	var ahead des.Duration // the lane clock's lead over the database's
	v := d.NewView(func() des.Time { return sch.Now().Add(ahead) })

	check := func(since des.Time) {
		t.Helper()
		now := sch.Now()
		for _, lead := range []des.Duration{0, ahead} {
			var want, got []Update
			wantPanic := panics(func() { want = ref.updatedSince(since, now.Add(lead)) })
			gotPanic := panics(func() {
				if lead == 0 {
					got = d.UpdatedSince(since, nil)
				} else {
					got = v.UpdatedSince(since, nil)
				}
			})
			if gotPanic != wantPanic || !slices.Equal(got, want) {
				t.Fatalf("now %v lead %v since %v: index %v (panic %v), history %v (panic %v)",
					now, lead, since, got, gotPanic, want, wantPanic)
			}
		}
	}
	for step := 0; step < 20_000; step++ {
		switch r := src.Float64(); {
		case r < 0.0005:
			// A new replication, sometimes with another database size.
			if src.Bool(0.5) {
				cfg.NumItems = 40 + src.Intn(40)
			}
			sch = des.NewScheduler()
			if err := d.Reset(sch, cfg, rng.New(uint64(step))); err != nil {
				t.Fatal(err)
			}
			ref = &historyScan{retention: cfg.Retention}
		case r < 0.3:
			// Same microsecond: no advance.
		case r < 0.95:
			sch.Run(sch.Now().Add(des.Duration(1 + src.Intn(20_000))))
		default:
			sch.Run(sch.Now().Add(cfg.Retention + des.Duration(src.Intn(1000))))
		}
		id := cfg.HotItems + src.Intn(cfg.NumItems-cfg.HotItems)
		if src.Bool(0.8) {
			id = src.Intn(cfg.HotItems)
		}
		d.ApplyUpdate(id)
		ref.apply(id, sch.Now())
		ahead = des.Duration(src.Intn(3)) * des.Millisecond

		now := sch.Now()
		edge := now.Add(-cfg.Retention)
		recent := ref.history[src.Intn(len(ref.history))].At
		for _, since := range []des.Time{recent, now, edge, edge.Add(ahead), des.Time(0),
			now.Add(-des.Duration(src.Intn(int(cfg.Retention))))} {
			check(since - 1)
			check(since)
			check(since + 1)
		}
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// TestUpdatedSinceLongHistory asks for the widest window the retention
// allows after ten minutes of updates 1 ms apart: every item is in it, each
// once with its latest update time, newest first, and the index still holds
// at most two entries per item.
func TestUpdatedSinceLongHistory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UpdateRate = 0
	d, sch := newDB(t, cfg, 13)
	src := rng.New(14)
	for i := 1; i <= 600_000; i++ {
		sch.Run(des.Time(i) * des.Time(des.Millisecond))
		d.ApplyUpdate(src.Intn(cfg.NumItems))
	}
	got := d.UpdatedSince(sch.Now().Add(-9*des.Minute-30*des.Second), nil)
	if len(got) != cfg.NumItems {
		t.Fatalf("%d items in the window, want all %d", len(got), cfg.NumItems)
	}
	for i, u := range got {
		if u.At != d.Item(u.ID).UpdatedAt || i > 0 && u.At >= got[i-1].At {
			t.Fatalf("entry %d = %+v after %+v: not each item's latest update, newest first", i, u, got[max(i-1, 0)])
		}
	}
	if len(d.log) > 2*cfg.NumItems {
		t.Fatalf("index holds %d entries for %d items", len(d.log), cfg.NumItems)
	}
}

// BenchmarkUpdatedSince times one UpdatedSince: a 20 s window after five
// minutes of the default hot/cold process at 100 updates/s; and, over 1000
// items updated uniformly 1 ms apart, a 2 s window (the shape of bench's
// served-write catch-ups, ~865 items) and a window 9.5 minutes back on a
// 10-minute history (every item, the widest window the retention allows).
func BenchmarkUpdatedSince(b *testing.B) {
	b.Run("hotcold-20s", func(b *testing.B) {
		sch := des.NewScheduler()
		cfg := DefaultConfig()
		cfg.UpdateRate = 100
		cfg.Retention = des.Minute
		d, err := New(sch, cfg, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		d.Start()
		sch.Run(des.Time(0).Add(5 * des.Minute))
		benchUpdatedSince(b, d, sch.Now().Add(-20*des.Second))
	})
	for _, bc := range []struct {
		name     string
		history  des.Duration
		lookback des.Duration
	}{
		{"uniform-2s", 2 * des.Second, 2 * des.Second},
		{"uniform-9.5min", 10 * des.Minute, 9*des.Minute + 30*des.Second},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sch := des.NewScheduler()
			cfg := DefaultConfig()
			cfg.UpdateRate = 0
			d, err := New(sch, cfg, rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			src := rng.New(2)
			for t := des.Time(0); t < des.Time(bc.history); t += des.Time(des.Millisecond) {
				sch.Run(t)
				d.ApplyUpdate(src.Intn(cfg.NumItems))
			}
			benchUpdatedSince(b, d, sch.Now().Add(-bc.lookback))
		})
	}
}

func benchUpdatedSince(b *testing.B, d *DB, since des.Time) {
	buf := make([]Update, 0, 2*d.NumItems())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = d.UpdatedSince(since, buf[:0])
	}
}
