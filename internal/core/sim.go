package core

import (
	"context"
	"runtime"
	"time"

	"repro/internal/db"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/topology"
)

// dbOracle adapts the database to the signature scheme's comparison oracle.
type dbOracle struct{ db *db.DB }

// UpdatedAt implements ir.Oracle.
func (o dbOracle) UpdatedAt(id int) des.Time { return o.db.Item(id).UpdatedAt }

// laneStats are the accumulators written from inside one execution lane (a
// cell's event stream): the delay recorder and the client-path fault
// counters. In a serial run every cell shares a single instance, so the
// observation order — and therefore every statistic — matches the historical
// single-scheduler run exactly. In a parallel run each cell owns one, and
// collect merges them in ascending cell-id order, which is what makes the
// results independent of the worker count.
type laneStats struct {
	delay *metrics.DelayRecorder

	// Internal whole-run telemetry (edge-case tests assert on these).
	respDeparted     uint64 // responses delivered after their client left the cell
	respDisconnected uint64 // responses delivered to a disconnected client

	// Post-warmup fault counters.
	queriesLostToOutage uint64
	queryRetries        uint64
	queryGiveups        uint64
	disconnects         uint64
	recoveries          uint64
	recoveryDelay       metrics.Summary

	reportsSuppressed uint64 // broadcasts swallowed at a dark base station
	reportsFaultLost  uint64 // standalone reports destroyed in transit
	reportsFaultTrunc uint64 // standalone reports corrupted in transit
}

func newLaneStats() *laneStats {
	return &laneStats{delay: metrics.NewDelayRecorder(64)}
}

// Simulation is one fully wired run: the composition root owning the shared
// scheduler, database, client population and one Cell per base station. Build
// with NewSimulation, execute with Execute (or use the Run convenience
// wrapper). A single-cell configuration (Topology.NumCells ≤ 1) wires exactly
// one Cell with the historical stream names and reproduces pre-topology runs
// bit-for-bit. The client population lives in ct, a struct-of-arrays table
// indexed by client id (see table.go).
type Simulation struct {
	cfg    Config
	sch    *des.Scheduler
	db     *db.DB
	cells  []*Cell
	topo   *topology.Model // nil when the run is single-cell
	ct     clientTable
	oracle ir.Oracle
	tr     obs.Tracer // nil = tracing disabled

	warmupAt des.Time

	// retryOn mirrors cfg.Fault.RetryEnabled() once startFaults armed the
	// layer: the per-request hot path tests one bool instead of re-deriving
	// the config predicate.
	retryOn bool

	// Parallel (epoch-synchronized per-cell) execution. par is the resolved
	// mode: requested by cfg.Parallel and compatible with the wiring (more
	// than one cell, no tracer, no rollups). lanes holds the distinct
	// laneStats instances in cell-id order — exactly one, shared by every
	// cell, in serial mode. posX/posY are the barrier-refreshed position
	// snapshot parallel lanes read in place of the lazily-advancing mobility
	// walkers (see snapLocator). epochs counts completed barriers.
	par        bool
	parWorkers int
	lanes      []*laneStats
	posX, posY []float64
	epochs     uint64

	// rollup is the tumbling-window telemetry accumulator, nil when
	// cfg.Rollup is unset (the hot-path helpers then return immediately).
	rollup *rollupState

	// handoff accounting. handoffs and handoffFlushes are post-warmup and
	// reported in RunStats; the remaining counters are whole-run internal
	// telemetry the edge-case tests assert on. All are written only from
	// the handoff ticker (a barrier event), so they stay on the Simulation.
	handoffs         uint64
	handoffFlushes   uint64
	handoffsAsleep   uint64 // client was dozing when it crossed cells
	handoffsMidQuery uint64 // client had an in-flight request at handoff

	// fault injection. injector is nil when cfg.Fault is fully disabled —
	// the layer then schedules no events and draws from no streams. The
	// client-path counters live in laneStats; outages stays here because
	// outage edges are global (barrier) events.
	injector *fault.Injector
	outages  uint64

	// warmup snapshot (per-cell snapshots live on each Cell)
	snapUpd uint64
}

type snapshotUplink struct {
	sent, attempts, collisions uint64
}

// NewSimulation validates cfg and wires every component.
func NewSimulation(cfg Config) (*Simulation, error) {
	return NewSimulationArena(cfg, nil)
}

// NewSimulationArena is NewSimulation drawing the allocation-heavy component
// state (the client table, database tables, channel buffers) from arena when
// one is supplied. A nil arena — or an arena holding nothing of the right
// shape — allocates fresh, so the wiring and the resulting run are identical
// either way.
func NewSimulationArena(cfg Config, arena *Arena) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim := &Simulation{
		cfg:      cfg,
		sch:      des.NewScheduler(),
		warmupAt: des.Time(0).Add(cfg.Warmup),
	}

	numCells := cfg.Topology.Cells()
	if cfg.Topology.Enabled() {
		topo, err := topology.NewModel(cfg.Topology, cfg.NumClients,
			rng.Stream(cfg.Seed, "topology"))
		if err != nil {
			return nil, err
		}
		sim.topo = topo
	}

	// Resolve the execution mode. Parallel lanes require more than one cell
	// and are incompatible with the process-local observers, which assume a
	// single serial event stream; such runs fall back to serial execution.
	sim.par = cfg.Parallel && numCells > 1 && cfg.Tracer == nil && cfg.Rollup == nil
	if sim.par {
		w := cfg.ParallelWorkers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		if w > numCells {
			w = numCells
		}
		sim.parWorkers = w
		sim.lanes = make([]*laneStats, numCells)
		for k := range sim.lanes {
			sim.lanes[k] = newLaneStats()
		}
		// Position snapshot: lanes read client positions frozen at the last
		// barrier instead of advancing the shared mobility walkers. Filled
		// at t=0 here (cells read it during construction through their
		// locators) and refreshed by every handoff check.
		sim.posX = make([]float64, cfg.NumClients)
		sim.posY = make([]float64, cfg.NumClients)
		for i := 0; i < cfg.NumClients; i++ {
			sim.posX[i], sim.posY[i] = sim.topo.Position(i, 0)
		}
	} else {
		sim.parWorkers = 1
		sim.lanes = []*laneStats{newLaneStats()}
	}

	var err error
	if arena != nil {
		if d := arena.takeDB(); d != nil {
			if err := d.Reset(sim.sch, cfg.DB, rng.Stream(cfg.Seed, "db")); err != nil {
				return nil, err
			}
			sim.db = d
		}
	}
	if sim.db == nil {
		sim.db, err = db.New(sim.sch, cfg.DB, rng.Stream(cfg.Seed, "db"))
		if err != nil {
			return nil, err
		}
	}
	sim.oracle = dbOracle{sim.db}

	sim.cells = make([]*Cell, numCells)
	for k := range sim.cells {
		sim.cells[k], err = newCell(sim, k, numCells, arena)
		if err != nil {
			return nil, err
		}
	}

	zipf := rng.NewZipf(cfg.DB.NumItems, cfg.Workload.Zipf)
	wsrc := rng.Stream(cfg.Seed, "workload")
	csrc := rng.Stream(cfg.Seed, "client")
	if arena != nil {
		sim.ct = arena.takeTable()
	}
	fresh := sim.ct.init(cfg.NumClients, cfg.CacheCapacity, cfg.DB.NumItems, cfg.CachePolicy)
	for i := 0; i < sim.ct.n; i++ {
		if err := sim.initClient(i, wsrc, csrc, zipf, fresh); err != nil {
			return nil, err
		}
	}

	// Fault layer: build the injector and hand every client its private
	// draw stream. All streams are dedicated to the fault layer, so a
	// disabled layer (nil injector) changes no draw sequence anywhere.
	if cfg.Fault.Enabled() {
		var reportStreams []*rng.Source
		if cfg.Fault.ReportFaultsEnabled() {
			reportStreams = make([]*rng.Source, numCells)
			for k := range reportStreams {
				reportStreams[k] = rng.Stream(cfg.Seed, cellStream("fault.report", k, numCells))
			}
		}
		sim.injector = fault.NewInjector(cfg.Fault, reportStreams)
		if cfg.Fault.RetryEnabled() || cfg.Fault.DisconnectsEnabled() {
			fsrc := rng.Stream(cfg.Seed, "fault.client")
			sim.ct.ensureCold()
			for i := range sim.ct.cold {
				sim.ct.cold[i].fsrc = fsrc.SubStreamValue(uint64(i))
			}
		}
	}

	// Associate each client with its nearest cell at t=0 and build the
	// per-cell awake rosters (everyone starts awake). Ascending id order
	// keeps roster iteration order identical to the historical sorted lists.
	for i := 0; i < sim.ct.n; i++ {
		k := 0
		if sim.topo != nil {
			k = sim.topo.NearestCell(i, 0)
		}
		sim.ct.cell[i] = int32(k)
		sim.cells[k].roster.add(i)
	}

	// Attach tracing last, once every component exists. All emission sites
	// are nil-guarded, so this block is the only tracing cost of an
	// untraced run.
	if tr := cfg.Tracer; tr != nil {
		sim.tr = tr
		sim.db.SetTracer(tr)
		for _, cell := range sim.cells {
			cell.downlink.SetTracer(tr)
		}
		for i := 0; i < sim.ct.n; i++ {
			sim.ct.caches[i].SetTracer(tr, i, sim.sch.Now)
			st := &sim.ct.istate[i]
			st.Tracer = tr
			st.Owner = i
			st.Clock = sim.sch.Now
		}
	}
	sim.initRollup()
	return sim, nil
}

// Executed reports how many discrete events have run so far, summed over the
// barrier scheduler and every lane.
func (s *Simulation) Executed() uint64 {
	n := s.sch.Executed()
	if s.par {
		for _, cell := range s.cells {
			n += cell.sch.Executed()
		}
	}
	return n
}

// Epochs reports how many synchronization epochs a parallel run has
// completed (zero for serial runs).
func (s *Simulation) Epochs() uint64 { return s.epochs }

// cancelCheckEvents is how many DES events run between context polls in
// ExecuteCtx: coarse enough to cost nothing, fine enough that a cancelled
// run stops within milliseconds of wall-clock time.
const cancelCheckEvents = 4096

// Execute runs the simulation to its horizon and returns the statistics.
func (s *Simulation) Execute() *RunStats {
	r, _ := s.ExecuteCtx(context.Background())
	return r
}

// ExecuteCtx runs the simulation to its horizon, polling ctx every few
// thousand events; a cancelled context aborts the run mid-flight and
// returns the context's error instead of partial statistics.
func (s *Simulation) ExecuteCtx(ctx context.Context) (*RunStats, error) {
	wallStart := time.Now()
	if ctx.Done() != nil { // Background and friends can never cancel
		intr := func() error { return ctx.Err() }
		s.sch.SetInterrupt(cancelCheckEvents, intr)
		if s.par {
			// Fail-fast reaches every lane within one epoch: each lane polls
			// the context on its own executed-event cadence, and the barrier
			// loop checks lane errors after every parallel phase.
			for _, cell := range s.cells {
				cell.sch.SetInterrupt(cancelCheckEvents, intr)
			}
		}
	}
	var pulsed uint64
	if fn := s.cfg.OnEventPulse; fn != nil && !s.par {
		s.sch.SetPulse(cancelCheckEvents, func(executed uint64) {
			fn(executed - pulsed)
			pulsed = executed
		})
	}
	s.db.Start()
	for _, cell := range s.cells {
		cell.bg.Start()
		cell.server.start()
	}
	for i := 0; i < s.ct.n; i++ {
		s.client(i).start()
	}
	if s.topo != nil {
		s.startHandoff()
	}
	s.startFaults()
	s.sch.At(s.warmupAt, "sim.warmup", s.resetAtWarmup)
	var end des.Time
	if s.par {
		// The epoch runner issues pulses itself (a barrier-side aggregate
		// over all schedulers) and leaves the residual to the shared path
		// below via pulsed.
		var err error
		end, err = s.runEpochs(ctx, des.Time(0).Add(s.cfg.Horizon), &pulsed)
		if err != nil {
			return nil, err
		}
	} else {
		end = s.sch.Run(des.Time(0).Add(s.cfg.Horizon))
		if err := s.sch.Err(); err != nil {
			return nil, err
		}
	}
	if fn := s.cfg.OnEventPulse; fn != nil && s.Executed() > pulsed {
		fn(s.Executed() - pulsed) // residual below the pulse granularity
	}
	s.rollupFinal(end)
	r := s.collect(end)
	r.WallSec = time.Since(wallStart).Seconds()
	r.Events = s.Executed()
	if r.WallSec > 0 {
		r.EventsPerSec = float64(r.Events) / r.WallSec
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.HeapAllocBytes = ms.HeapAlloc
	return r, nil
}

// resetAtWarmup snapshots cumulative counters so collect can report
// post-warmup deltas, and resets the per-client energy meters.
func (s *Simulation) resetAtWarmup() {
	for _, cell := range s.cells {
		cell.snapDown = *cell.downlink.Stats()
		up := cell.uplink.Stats()
		cell.snapUp = snapshotUplink{
			sent:       up.Sent.Value(),
			attempts:   up.Attempts.Value(),
			collisions: up.Collisions.Value(),
		}
		cell.snapIR = cell.server.irBitsSent
		cell.snapPig = cell.server.piggyBitsSent
	}
	s.snapUpd = s.db.Updates()
	for i := range s.ct.meters {
		s.ct.meters[i].Reset()
	}
}

// onUplinkSlot charges transmit energy for one resolved contention slot: one
// slot of airtime to each transmitting client, in the slot's FIFO order. It
// is a Cell method so the warmup gate reads the lane clock, and so a parallel
// run can skip the meter write when the client was handed to another cell
// with the attempt still queued — its meter belongs to the other lane.
// (Serial runs keep charging departed clients, matching the historical
// accounting.)
func (cell *Cell) onUplinkSlot(srcs []int32) {
	s := cell.sim
	if cell.sch.Now() < s.warmupAt {
		return
	}
	tx := s.cfg.Uplink.SlotDur.Seconds()
	for _, src := range srcs {
		if s.par && int(s.ct.cell[src]) != cell.id {
			continue
		}
		s.ct.meters[src].AddTx(tx)
	}
}

func (s *Simulation) chargeRx(id int, airtimeSec float64, now des.Time) {
	if now < s.warmupAt {
		return
	}
	s.ct.meters[id].AddRx(airtimeSec)
}
