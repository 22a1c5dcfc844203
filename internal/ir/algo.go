package ir

import (
	"fmt"
	"sort"

	"repro/internal/db"
	"repro/internal/des"
	"repro/internal/radio"
)

// ServerEnv is the view of the base station that server-side invalidation
// algorithms program against. It has two hosts: the simulated cell
// (internal/core) and the served runtime (internal/serve).
type ServerEnv interface {
	// Now reports the current simulation time.
	Now() des.Time
	// UpdatedSince returns every item updated in (since, now] with its
	// latest update time, appended to buf.
	UpdatedSince(since des.Time, buf []db.Update) []db.Update
	// Broadcast enqueues a report on the downlink at the given MCS index.
	Broadcast(r *Report, mcs int)
	// NewTicker creates (but does not start) a periodic callback.
	NewTicker(period des.Duration, name string, fn func(des.Time)) *des.Ticker
	// AwakeSNRs reports the instantaneous SNR of every awake client; the
	// returned slice is valid until the next ServerEnv call.
	AwakeSNRs() []float64
	// AMC reports the link adaptation policy in force.
	AMC() *radio.AMC
	// DownlinkLoad reports a smoothed recent estimate of downlink
	// utilization in [0, 1], including queued backlog pressure.
	DownlinkLoad() float64
}

// CatchupReport builds the UIR-style catch-up reply for a client whose last
// consistent point is since: a unicast full report covering (since, now].
// When the gap outlived the host's update retention, or since lies in the
// future, it is an empty now-anchored full report instead, which forces the
// client's safe drop-everything path. The report is freshly allocated, never
// from an algorithm's arena: its lifetime ends at one client, not at a
// broadcast fan-out, so it must not be recycled.
func CatchupReport(env ServerEnv, since des.Time, retention des.Duration) *Report {
	r := &Report{}
	BuildCatchup(r, env, since, retention)
	return r
}

// BuildCatchup writes the catch-up reply CatchupReport describes into r,
// overwriting every field and appending the items to r's Items backing
// array, so a host that encodes each reply before building the next reuses
// one report for all of them.
func BuildCatchup(r *Report, env ServerEnv, since des.Time, retention des.Duration) {
	now := env.Now()
	*r = Report{Kind: KindFull, At: now, PrevAt: now, WindowStart: now, Items: r.Items[:0]}
	// Compared without subtracting since, which a hostile peer can set so
	// that now - since overflows.
	if since <= now && since >= now.Add(-retention) {
		r.WindowStart = since
		r.Items = env.UpdatedSince(since, r.Items)
	}
}

// ServerAlgo is one invalidation-report algorithm, server side. It is the
// minimal contract every scheme satisfies: arming a report schedule against
// a ServerEnv and recycling consumed reports. The one optional behaviour,
// piggybacking digests on data frames, is the separate Piggybacker
// interface below, which a host looks up once with AsPiggybacker.
type ServerAlgo interface {
	// Name reports the scheme's short name (ts, at, sig, bs, uir, tair,
	// lair, hybrid).
	Name() string
	// Start arms the algorithm's report schedule.
	Start(env ServerEnv)
	// Recycle returns a fully consumed report (Broadcast or Piggyback
	// output) to the algorithm for reuse. Callers must drop every
	// reference to the report and its Items afterwards; recycling nil is
	// a no-op. Consumers that retain reports simply never call it.
	Recycle(r *Report)
}

// Piggybacker is the optional server-side capability of attaching small
// invalidation digests to departing unicast data frames. Only the
// traffic-aware schemes (tair, hybrid) provide it; hosts must discover it
// with AsPiggybacker rather than a bare type assertion, because an algorithm
// may structurally carry the method while having the mechanism disabled.
type Piggybacker interface {
	// Piggyback is consulted before every unicast downlink data frame
	// departs; a non-nil report is attached to the frame.
	Piggyback(now des.Time) *Report
}

// piggybackEnabler lets an algorithm that structurally has a Piggyback
// method report whether the mechanism is actually armed (the Adaptive type
// backs tair, lair and hybrid, but only the traffic-aware two piggyback).
type piggybackEnabler interface {
	PiggybackEnabled() bool
}

// AsPiggybacker reports the algorithm's piggyback capability, or nil when
// the scheme never attaches digests to data frames.
func AsPiggybacker(a ServerAlgo) Piggybacker {
	p, ok := a.(Piggybacker)
	if !ok {
		return nil
	}
	if e, ok := a.(piggybackEnabler); ok && !e.PiggybackEnabled() {
		return nil
	}
	return p
}

// reportArena is the per-algorithm free list behind ServerAlgo.Recycle:
// Report structs and their Items backing arrays cycle server → downlink
// queue → client fan-out → arena, so a steady-state run stops allocating
// per report. Everything happens on one simulation goroutine; the arena is
// never shared across simulations.
type reportArena struct {
	freeReports []*Report
	freeItems   [][]db.Update
}

// getReport returns a cleared report.
func (ra *reportArena) getReport() *Report {
	if n := len(ra.freeReports); n > 0 {
		r := ra.freeReports[n-1]
		ra.freeReports = ra.freeReports[:n-1]
		*r = Report{}
		return r
	}
	return &Report{}
}

// takeItems returns a zero-length items buffer, reusing recycled capacity.
func (ra *reportArena) takeItems() []db.Update {
	if n := len(ra.freeItems); n > 0 {
		b := ra.freeItems[n-1]
		ra.freeItems = ra.freeItems[:n-1]
		return b
	}
	return nil
}

// saveItems stores an items buffer's backing array for reuse.
func (ra *reportArena) saveItems(b []db.Update) {
	if cap(b) > 0 {
		ra.freeItems = append(ra.freeItems, b[:0])
	}
}

// sealItems canonicalizes a finished items slice: empty reports carry nil
// Items on the wire (what Unmarshal produces), so an empty buffer goes back
// to the spare list and nil is returned.
func (ra *reportArena) sealItems(b []db.Update) []db.Update {
	if len(b) == 0 {
		ra.saveItems(b)
		return nil
	}
	return b
}

// Recycle implements ServerAlgo.Recycle for every embedding algorithm.
func (ra *reportArena) Recycle(r *Report) {
	if r == nil {
		return
	}
	ra.saveItems(r.Items)
	r.Items = nil
	r.Sig = nil
	ra.freeReports = append(ra.freeReports, r)
}

// Params carries every scheme tunable with literature-conventional defaults.
// Unused fields are ignored by schemes that do not need them.
type Params struct {
	Interval      des.Duration // L: base report period
	WindowReports int          // K: coverage window in report periods (TS family)

	// UIR.
	MiniPerInterval int // m−1 minis are sent between consecutive full reports

	// SIG.
	SigBits          int
	SigCapacity      int
	SigFalsePositive float64

	// BS sizes its bit-sequence hierarchy from the database size.
	NumItems int

	// LAIR.
	Coverage float64 // fraction of awake clients each fast report must reach

	// TAIR.
	IntervalMin   des.Duration
	IntervalMax   des.Duration
	LoadLow       float64 // below this downlink load the interval pins to min
	LoadHigh      float64 // above this it pins to max
	PiggyMinGap   des.Duration
	PiggyMaxItems int
}

// DefaultParams returns the defaults used by the experiment matrix.
func DefaultParams() Params {
	return Params{
		Interval:         20 * des.Second,
		WindowReports:    2,
		MiniPerInterval:  4,
		SigBits:          8192,
		SigCapacity:      16,
		SigFalsePositive: 0.02,
		Coverage:         0.75,
		IntervalMin:      5 * des.Second,
		IntervalMax:      40 * des.Second,
		LoadLow:          0.2,
		LoadHigh:         0.8,
		PiggyMinGap:      500 * des.Millisecond,
		PiggyMaxItems:    32,
	}
}

// Validate reports the first parameter problem.
func (p Params) Validate() error {
	switch {
	case p.Interval <= 0:
		return fmt.Errorf("ir: Interval %v", p.Interval)
	case p.WindowReports < 1:
		return fmt.Errorf("ir: WindowReports %d", p.WindowReports)
	case p.MiniPerInterval < 1:
		return fmt.Errorf("ir: MiniPerInterval %d", p.MiniPerInterval)
	case p.SigBits <= 0 || p.SigCapacity <= 0:
		return fmt.Errorf("ir: sig sizing %d/%d", p.SigBits, p.SigCapacity)
	case p.SigFalsePositive < 0 || p.SigFalsePositive >= 1:
		return fmt.Errorf("ir: SigFalsePositive %v", p.SigFalsePositive)
	case p.Coverage <= 0 || p.Coverage > 1:
		return fmt.Errorf("ir: Coverage %v", p.Coverage)
	case p.IntervalMin <= 0 || p.IntervalMax < p.IntervalMin:
		return fmt.Errorf("ir: interval range [%v, %v]", p.IntervalMin, p.IntervalMax)
	case p.LoadLow < 0 || p.LoadHigh <= p.LoadLow || p.LoadHigh > 1:
		return fmt.Errorf("ir: load band [%v, %v]", p.LoadLow, p.LoadHigh)
	case p.PiggyMinGap < 0 || p.PiggyMaxItems < 1:
		return fmt.Errorf("ir: piggyback params")
	}
	return nil
}

// Names lists the supported scheme names in canonical presentation order.
var Names = []string{"ts", "at", "sig", "bs", "uir", "tair", "lair", "hybrid"}

// New builds the named algorithm.
func New(name string, p Params) (ServerAlgo, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch name {
	case "ts":
		return &TS{p: p}, nil
	case "at":
		return &AT{p: p}, nil
	case "sig":
		return &SIG{p: p}, nil
	case "bs":
		n := p.NumItems
		if n <= 0 {
			n = 1000
		}
		return &BS{p: p, numItems: n}, nil
	case "uir":
		return &UIR{p: p}, nil
	case "tair":
		return newAdaptive(p, true, false), nil
	case "lair":
		return newAdaptive(p, false, true), nil
	case "hybrid":
		return newAdaptive(p, true, true), nil
	}
	return nil, fmt.Errorf("ir: unknown algorithm %q (have %v)", name, Names)
}

// robustMCS is the index classic schemes broadcast at: the most reliable
// (slowest) entry of the table — "no link adaptation for broadcast".
const robustMCS = 0

// sortUpdates orders report items by id for a canonical wire form.
func sortUpdates(items []db.Update) {
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
}
