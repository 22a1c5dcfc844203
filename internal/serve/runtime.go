// Package serve hosts the invalidation-report engine outside the discrete-
// event simulation: the runtime that binds one algorithm to a virtual clock
// and an owned database, the wire framing of the query and broadcast planes,
// and the server that puts the runtime behind real sockets.
package serve

import (
	"fmt"
	"math"

	"repro/internal/db"
	"repro/internal/des"
	"repro/internal/ir"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/serve/capabilities"
)

// RuntimeConfig parameterizes a served engine runtime.
type RuntimeConfig struct {
	Algo string    // scheme name (ir.Names)
	IR   ir.Params // algorithm tunables
	DB   db.Config // database sizing and update process
	Seed uint64    // master seed for the db update stream
}

// DefaultRuntimeConfig mirrors the simulation's base configuration, with the
// stochastic update process disabled: a served database normally changes
// through ingested updates, not a self-driving process. Set DB.UpdateRate to
// re-enable it.
func DefaultRuntimeConfig() RuntimeConfig {
	dbc := db.DefaultConfig()
	dbc.UpdateRate = 0
	p := ir.DefaultParams()
	p.NumItems = dbc.NumItems
	return RuntimeConfig{Algo: "ts", IR: p, DB: dbc, Seed: 1}
}

// Status is a snapshot of a runtime's state. The actor-queue and query-plane
// fields are filled by the hosting Server (a bare Runtime has no mailbox and
// no sockets): the load-test hooks that let a harness watch how deep the
// single-actor serialization point backs up under socket load, and how many
// request frames each actor op serves. The mailbox holds ops, and a query
// connection's op is a whole batch of frames.
type Status struct {
	Algo           string   `json:"algo"`
	NowUS          int64    `json:"now_us"`
	Broadcasts     uint64   `json:"broadcasts"`
	QueriesServed  uint64   `json:"queries_served"`
	UpdatesApplied uint64   `json:"updates_applied"`
	LastReportAtUS int64    `json:"last_report_at_us"`
	Capabilities   []string `json:"capabilities"`
	PendingEvents  int      `json:"pending_events"`
	ExecutedEvents uint64   `json:"executed_events"`
	QueueDepth     int      `json:"actor_queue_depth"`
	QueueMax       int      `json:"actor_queue_max"`
	QueryFrames    uint64   `json:"query_frames"`  // request frames served on the TCP plane
	QueryBatches   uint64   `json:"query_batches"` // actor ops that served them
}

// Runtime is the invalidation-report engine bound to a virtual clock and an
// owned database: everything wdcserved does except sockets. It implements
// ir.ServerEnv for its algorithm; report broadcasts leave through the sink
// as encoded datagrams. All methods must be called from one goroutine (the
// Server actor, or a test driving it directly) — the runtime is exactly as
// single-threaded as the simulation core it mirrors.
type Runtime struct {
	sch   *des.Scheduler
	db    *db.DB
	amc   *radio.AMC
	algo  ir.ServerAlgo
	piggy ir.Piggybacker // nil unless the scheme piggybacks (tair, hybrid)

	sink  func(mcs int, datagram []byte)
	reply ir.Report // catchupReply's report, reused for every reply

	// Environment signals, pushed by the host (control plane or test).
	snrs []float64
	load float64

	broadcasts uint64
	queries    uint64
	ingested   uint64
	lastRepAt  des.Time
}

// NewRuntime builds a stopped runtime; Start arms the report schedule. The
// sink receives every broadcast datagram and must not retain it past the
// call.
func NewRuntime(cfg RuntimeConfig, sink func(mcs int, datagram []byte)) (*Runtime, error) {
	if sink == nil {
		sink = func(int, []byte) {}
	}
	rt := &Runtime{sch: des.NewScheduler(), amc: radio.DefaultAMC(), sink: sink}
	d, err := db.New(rt.sch, cfg.DB, rng.Stream(cfg.Seed, "db"))
	if err != nil {
		return nil, err
	}
	rt.db = d
	p := cfg.IR
	if p.NumItems == 0 {
		p.NumItems = d.NumItems()
	}
	algo, err := ir.New(cfg.Algo, p)
	if err != nil {
		return nil, err
	}
	rt.algo, rt.piggy = algo, ir.AsPiggybacker(algo)
	return rt, nil
}

// Start arms the database update process and the report schedule.
func (rt *Runtime) Start() {
	rt.db.Start()
	rt.algo.Start(rt)
}

// AdvanceTo runs every event scheduled at or before t and leaves the clock
// at t. It reports how many report broadcasts the advance produced, so a
// lock-step driver knows exactly how many datagrams to collect. The virtual
// clock only moves forward; asking for an earlier time is a caller error,
// not a silent no-op.
func (rt *Runtime) AdvanceTo(t des.Time) (broadcasts uint64, err error) {
	if now := rt.sch.Now(); t < now {
		return 0, fmt.Errorf("serve: AdvanceTo %v before now %v", t, now)
	}
	before := rt.broadcasts
	rt.sch.Run(t)
	return rt.broadcasts - before, nil
}

// Now reports the virtual clock (also part of ir.ServerEnv).
func (rt *Runtime) Now() des.Time { return rt.sch.Now() }

// checkItem rejects an item id outside the database. Query and Inject take
// their ids off the wire, and db.Item would index out of range on the actor.
func (rt *Runtime) checkItem(item int) error {
	if n := rt.db.NumItems(); item < 0 || item >= n {
		return fmt.Errorf("serve: item %d out of range [0, %d)", item, n)
	}
	return nil
}

// Query answers one item query at the current clock. When the scheme
// piggybacks, the marshaled digest it would attach to the response frame is
// returned alongside — the served analogue of the core's digest-on-response
// path — or nil when the scheme declines or never piggybacks.
func (rt *Runtime) Query(item int) (capabilities.Answer, []byte, error) {
	ans, pg, err := rt.answer(item)
	var digest []byte
	if pg != nil {
		digest = pg.Marshal()
		rt.algo.Recycle(pg)
	}
	return ans, digest, err
}

// answer is Query with the digest left as the algorithm's report: the
// caller encodes it and hands it back through algo.Recycle.
func (rt *Runtime) answer(item int) (capabilities.Answer, *ir.Report, error) {
	if err := rt.checkItem(item); err != nil {
		return capabilities.Answer{}, nil, err
	}
	now := rt.sch.Now()
	it := rt.db.Item(item)
	rt.queries++
	var pg *ir.Report
	if rt.piggy != nil {
		pg = rt.piggy.Piggyback(now)
	}
	return capabilities.Answer{Item: it.ID, Version: it.Version, Bits: it.Bits, AsOf: now}, pg, nil
}

// Catchup serves the update history since the given consistency point. The
// caller owns the returned report (it is never arena-backed).
func (rt *Runtime) Catchup(since des.Time) *ir.Report {
	return ir.CatchupReport(rt, since, rt.db.Config().Retention)
}

// checkSince rejects a consistency point past the clock: no client of this
// runtime can have reached it. The comparison is unsigned, as the point is
// on the wire, so a u64 at or above 2^63 (a negative des.Time) is past the
// clock too.
func (rt *Runtime) checkSince(since des.Time) error {
	if now := rt.Now(); uint64(since) > uint64(now) {
		return fmt.Errorf("serve: catchup since %dµs is past the server clock %v", uint64(since), now)
	}
	return nil
}

// catchupReply builds the catch-up Catchup describes into the runtime's one
// reply report, valid until the next call: the query plane encodes each
// reply before it builds the next.
func (rt *Runtime) catchupReply(since des.Time) *ir.Report {
	ir.BuildCatchup(&rt.reply, rt, since, rt.db.Config().Retention)
	return &rt.reply
}

// Inject applies one externally originated update and reports the item's
// new version, stamped with the update time.
func (rt *Runtime) Inject(item int) (capabilities.Answer, error) {
	if err := rt.checkItem(item); err != nil {
		return capabilities.Answer{}, err
	}
	rt.db.ApplyUpdate(item)
	rt.ingested++
	it := rt.db.Item(item)
	return capabilities.Answer{Item: it.ID, Version: it.Version, Bits: it.Bits, AsOf: it.UpdatedAt}, nil
}

// SetSignals pushes the environment signals the adaptive schemes consume:
// the awake-population SNRs and the downlink load estimate. The slice is
// copied. Load is a capacity fraction and must land in [0, 1]; SNRs must be
// finite — a NaN here would silently poison the link-adaptation averages.
func (rt *Runtime) SetSignals(snrs []float64, load float64) error {
	if math.IsNaN(load) || load < 0 || load > 1 {
		return fmt.Errorf("serve: load %v outside [0, 1]", load)
	}
	for i, s := range snrs {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("serve: snr[%d] = %v is not finite", i, s)
		}
	}
	rt.snrs = append(rt.snrs[:0], snrs...)
	rt.load = load
	return nil
}

// FinalReport emits one last catch-up report through the sink, covering
// everything since the previous broadcast: the graceful-shutdown farewell
// that lets connected clients stay consistent across a server restart. It
// broadcasts at the robust MCS so every listener can decode it.
func (rt *Runtime) FinalReport() {
	rt.emit(rt.Catchup(rt.lastRepAt), 0)
}

// Caps reports the operations the runtime offers: all of them, with
// piggybacking only when the scheme attaches digests.
func (rt *Runtime) Caps() capabilities.Set {
	return capabilities.Set{Report: true, Piggyback: rt.piggy != nil, Query: true, Ingest: true, Catchup: true}
}

// DBItem reports the current state of one item — the ground truth the
// conformance oracle checks client caches against.
func (rt *Runtime) DBItem(id int) db.Item { return rt.db.Item(id) }

// Status snapshots the runtime.
func (rt *Runtime) Status() Status {
	return Status{
		Algo:           rt.algo.Name(),
		NowUS:          int64(rt.sch.Now()),
		Broadcasts:     rt.broadcasts,
		QueriesServed:  rt.queries,
		UpdatesApplied: rt.ingested,
		LastReportAtUS: int64(rt.lastRepAt),
		Capabilities:   rt.Caps().Names(),
		PendingEvents:  rt.sch.Pending(),
		ExecutedEvents: rt.sch.Executed(),
	}
}

// emit encodes and sinks one report, then recycles it.
func (rt *Runtime) emit(r *ir.Report, mcs int) {
	rt.broadcasts++
	rt.lastRepAt = r.At
	rt.sink(mcs, EncodeDatagram(mcs, r))
	rt.algo.Recycle(r)
}

// --- ir.ServerEnv (the algorithm side of the runtime) ---

// UpdatedSince implements ir.ServerEnv.
func (rt *Runtime) UpdatedSince(since des.Time, buf []db.Update) []db.Update {
	return rt.db.UpdatedSince(since, buf)
}

// Broadcast implements ir.ServerEnv: the report leaves as a datagram.
func (rt *Runtime) Broadcast(r *ir.Report, mcs int) { rt.emit(r, mcs) }

// NewTicker implements ir.ServerEnv.
func (rt *Runtime) NewTicker(period des.Duration, name string, fn func(des.Time)) *des.Ticker {
	return des.NewTicker(rt.sch, period, name, fn)
}

// AwakeSNRs implements ir.ServerEnv from the pushed signal state.
func (rt *Runtime) AwakeSNRs() []float64 { return rt.snrs }

// AMC implements ir.ServerEnv.
func (rt *Runtime) AMC() *radio.AMC { return rt.amc }

// DownlinkLoad implements ir.ServerEnv from the pushed signal state.
func (rt *Runtime) DownlinkLoad() float64 { return rt.load }
