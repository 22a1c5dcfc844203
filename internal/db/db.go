// Package db implements the server-side database: a set of data items with a
// stochastic hot/cold update process and the latest-update index that the
// invalidation-report generators query.
package db

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Item is one server data item. Version counts updates; UpdatedAt is the
// simulation time of the latest update.
type Item struct {
	ID        int
	Version   uint64
	UpdatedAt des.Time
	Bits      int // payload size when sent in a response
}

// Update is one item update: item id and update time.
type Update struct {
	ID int
	At des.Time
}

// Config parameterizes the database and its update process.
type Config struct {
	NumItems int
	ItemBits int // payload bits per item

	// The update process is the classic hot/cold split: HotFraction of the
	// aggregate UpdateRate lands uniformly on the first HotItems items, the
	// rest uniformly on the cold remainder. Inter-update times are
	// exponential.
	UpdateRate  float64 // aggregate updates per second
	HotItems    int
	HotFraction float64

	// Retention bounds how far back UpdatedSince can be asked; the owner
	// sets it to the largest invalidation window any algorithm will use.
	// The latest-update index answers any window, so Retention is a
	// contract check, not a memory bound.
	Retention des.Duration
}

// DefaultConfig mirrors the canonical setup of the invalidation-report
// literature: 1000 items of 1 KB, updates concentrated on a 50-item hot set,
// one update per five seconds in aggregate.
func DefaultConfig() Config {
	return Config{
		NumItems:    1000,
		ItemBits:    8192,
		UpdateRate:  0.2,
		HotItems:    50,
		HotFraction: 0.8,
		Retention:   10 * des.Minute,
	}
}

// Validate reports the first configuration problem.
func (c Config) Validate() error {
	switch {
	case c.NumItems <= 0:
		return fmt.Errorf("db: NumItems %d", c.NumItems)
	case c.ItemBits <= 0:
		return fmt.Errorf("db: ItemBits %d", c.ItemBits)
	case c.UpdateRate < 0:
		return fmt.Errorf("db: negative UpdateRate %v", c.UpdateRate)
	case c.HotItems < 0 || c.HotItems > c.NumItems:
		return fmt.Errorf("db: HotItems %d of %d", c.HotItems, c.NumItems)
	case c.HotFraction < 0 || c.HotFraction > 1:
		return fmt.Errorf("db: HotFraction %v", c.HotFraction)
	case c.HotItems == 0 && c.HotFraction > 0 && c.UpdateRate > 0:
		return fmt.Errorf("db: hot updates with no hot items")
	case c.HotItems == c.NumItems && c.HotFraction < 1 && c.UpdateRate > 0:
		return fmt.Errorf("db: cold updates with no cold items")
	case c.Retention <= 0:
		return fmt.Errorf("db: Retention %v", c.Retention)
	}
	return nil
}

// DB is the server database. All methods must run on the simulation
// goroutine.
type DB struct {
	cfg   Config
	sch   *des.Scheduler
	src   *rng.Source
	items []Item

	// The latest-update index: log holds one live entry per updated item,
	// its latest update, in update order, so update times never decrease
	// along it. An item's earlier entries are tombstones (ID -1). slot[id]
	// is 1 + the log index of item id's live entry, 0 when it has none.
	// ApplyUpdate compacts the log once tombstones outnumber live entries,
	// so it never holds more than 2·NumItems entries.
	log  []Update
	slot []int
	dead int

	updates  uint64
	onUpdate func(id int, now des.Time)
	updateFn func() // persistent arrival callback; rescheduled, never rebuilt
	running  bool
	tr       obs.Tracer
}

// New validates the config and builds the database.
func New(sch *des.Scheduler, cfg Config, src *rng.Source) (*DB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &DB{
		cfg:   cfg,
		sch:   sch,
		src:   src,
		items: make([]Item, cfg.NumItems),
		slot:  make([]int, cfg.NumItems),
	}
	for i := range d.items {
		d.items[i] = Item{ID: i, Bits: cfg.ItemBits}
	}
	d.updateFn = func() {
		if !d.running {
			return
		}
		d.applyRandomUpdate()
		d.scheduleNext()
	}
	return d, nil
}

// Reset re-initializes the database in place for a new replication,
// reusing the O(NumItems) item and index tables when the size is unchanged.
// The scheduler and source are replaced (each replication owns fresh ones);
// hooks and tracer are cleared.
func (d *DB) Reset(sch *des.Scheduler, cfg Config, src *rng.Source) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.NumItems != d.cfg.NumItems {
		d.items = make([]Item, cfg.NumItems)
		d.slot = make([]int, cfg.NumItems)
	} else {
		clear(d.slot)
	}
	for i := range d.items {
		d.items[i] = Item{ID: i, Bits: cfg.ItemBits}
	}
	d.cfg = cfg
	d.sch = sch
	d.src = src
	d.log = d.log[:0]
	d.dead = 0
	d.updates = 0
	d.onUpdate = nil
	d.running = false
	d.tr = nil
	return nil
}

// Config reports the active configuration.
func (d *DB) Config() Config { return d.cfg }

// NumItems reports the database size.
func (d *DB) NumItems() int { return d.cfg.NumItems }

// Item returns a read-only view of item id.
func (d *DB) Item(id int) Item { return d.items[id] }

// Updates reports the total number of updates applied.
func (d *DB) Updates() uint64 { return d.updates }

// SetUpdateHook installs fn to observe every update.
func (d *DB) SetUpdateHook(fn func(id int, now des.Time)) { d.onUpdate = fn }

// SetTracer attaches an event tracer; nil disables tracing.
func (d *DB) SetTracer(tr obs.Tracer) { d.tr = tr }

// Start launches the update process. Idempotent; a zero UpdateRate produces
// no updates.
func (d *DB) Start() {
	if d.running || d.cfg.UpdateRate == 0 {
		return
	}
	d.running = true
	d.scheduleNext()
}

// Stop halts the update process.
func (d *DB) Stop() { d.running = false }

func (d *DB) scheduleNext() {
	gap := des.FromSeconds(d.src.Exp(d.cfg.UpdateRate))
	d.sch.After(gap, "db.update", d.updateFn)
}

func (d *DB) applyRandomUpdate() {
	var id int
	if d.src.Bool(d.cfg.HotFraction) {
		id = d.src.Intn(d.cfg.HotItems)
	} else {
		id = d.cfg.HotItems + d.src.Intn(d.cfg.NumItems-d.cfg.HotItems)
	}
	d.ApplyUpdate(id)
}

// ApplyUpdate records an update to item id at the current time. Exposed so
// tests and examples can drive deterministic update sequences.
func (d *DB) ApplyUpdate(id int) {
	now := d.sch.Now()
	it := &d.items[id]
	it.Version++
	it.UpdatedAt = now
	d.updates++
	d.index(id, now)
	if d.tr != nil {
		d.tr.DBUpdate(obs.DBUpdateEvent{At: now, Item: id, Version: it.Version})
	}
	if d.onUpdate != nil {
		d.onUpdate(id, now)
	}
}

// index makes the update of item id at now its live log entry, retiring
// the previous one to a tombstone, and compacts the log once tombstones
// outnumber live entries.
func (d *DB) index(id int, now des.Time) {
	if p := d.slot[id]; p > 0 {
		d.log[p-1].ID = -1
		d.dead++
	}
	d.log = append(d.log, Update{ID: id, At: now})
	d.slot[id] = len(d.log)
	if 2*d.dead > len(d.log) {
		n := 0
		for _, u := range d.log {
			if u.ID >= 0 {
				d.log[n] = u
				n++
				d.slot[u.ID] = n
			}
		}
		d.log, d.dead = d.log[:n], 0
	}
}

// UpdatedSince returns, for each item updated in (since, now], one Update
// carrying the item's LATEST update time, appended to buf newest first.
// Asking beyond the retention horizon panics: the caller configured the
// retention and a silent truncation would produce stale caches.
func (d *DB) UpdatedSince(since des.Time, buf []Update) []Update {
	d.checkRetention(since, d.sch.Now())
	return d.appendSince(since, buf)
}

// checkRetention panics when since lies beyond the retention horizon of a
// query made at now.
func (d *DB) checkRetention(since, now des.Time) {
	if horizon := now.Add(-des.Duration(d.cfg.Retention)); since < horizon && now > des.Time(d.cfg.Retention) {
		panic(fmt.Sprintf("db: UpdatedSince(%v) beyond retention horizon %v", since, horizon))
	}
}

// appendSince copies the log entries after since, newest first, skipping
// tombstones. An item's live entry carries its latest update, and a
// tombstone after since is always followed by its item's live entry, so
// this lists every item updated after since exactly once. The copy is
// branch-free: each entry is written, and the output advances past it only
// when it is live.
func (d *DB) appendSince(since des.Time, buf []Update) []Update {
	start := sort.Search(len(d.log), func(i int) bool { return d.log[i].At > since })
	n := len(buf)
	buf = slices.Grow(buf, len(d.log)-start)[:n+len(d.log)-start]
	for i := len(d.log) - 1; i >= start; i-- {
		u := d.log[i]
		buf[n] = u
		n += int(^uint(u.ID) >> (bits.UintSize - 1))
	}
	return buf[:n]
}

// View is a read-only query handle on the database for one execution lane.
// It owns a private clock, so concurrent lanes can call UpdatedSince on the
// same DB without sharing mutable state: the update process runs on the
// global scheduler, which only advances at epoch barriers while every lane
// is parked, so the index a lane reads is frozen for the duration of its
// epoch (the "epoch-visible update log").
type View struct {
	d   *DB
	now func() des.Time
}

// NewView builds a lane view whose retention checks use the given clock; a
// nil clock falls back to the database's own scheduler.
func (d *DB) NewView(now func() des.Time) *View {
	if now == nil {
		now = d.sch.Now
	}
	return &View{d: d, now: now}
}

// UpdatedSince is DB.UpdatedSince evaluated against the view's clock.
func (v *View) UpdatedSince(since des.Time, buf []Update) []Update {
	v.d.checkRetention(since, v.now())
	return v.d.appendSince(since, buf)
}
