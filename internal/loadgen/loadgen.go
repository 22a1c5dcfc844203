// Package loadgen is the wall-clock load harness: a fleet of simulated cache
// clients — the same harness.Client protocol endpoints the conformance oracle
// drives in virtual time — running against a real wdcserved process over its
// actual UDP broadcast and TCP query planes, with real sleeps standing in for
// think time and doze. It measures what the virtual-clock tiers cannot:
// answer latency under socket concurrency, the actor mailbox backing up, and
// the invalidation contract holding while reports race queries in real time.
//
// The determinism contract is deliberately partial. Each client owns two RNG
// streams: the action stream decides what the client does (think times, item
// picks, query-vs-doze), the proto stream absorbs every draw whose count
// depends on wall timing (signature checks per delivered report, retry
// jitter). Counts derived from action streams alone — queries, scheduled
// catch-ups, injected updates, signal pushes, traffic frames, the queried
// item checksum — are identical across same-seed runs; latencies, retries,
// drops and recovery catch-ups are not, and Result keeps the two classes
// apart.
package loadgen

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/serve/capabilities"
	"repro/internal/serve/harness"
	"repro/internal/traffic"
)

// Config parameterizes one load run against one algorithm.
type Config struct {
	Algo    string // scheme under load (ir.Names)
	Seed    uint64 // drives every stream: per-client, injector, signals
	Clients int    // fleet size
	Steps   int    // actions per client (queries + scheduled catch-ups)

	// Rate is each client's mean action rate in actions per wall second;
	// think times between actions are exponential with this rate.
	Rate float64

	// DozeMeanSec is the mean doze (radio-off) length in wall seconds. Keep
	// it past the server's report window so waking clients exercise the
	// coverage-window rule, not just the happy path.
	DozeMeanSec float64

	Injects int // database updates injected over the run
	Signals int // environment-signal pushes over the run

	// Bin, when non-empty, spawns that wdcserved binary as the target; empty
	// runs an in-process serve.Server behind the same sockets.
	Bin string

	IOTimeout time.Duration // per-exchange socket deadline
	RetryBase time.Duration // bounded-exponential retry backoff base
	RetryMax  int           // retries per exchange before the client gives up
	QueueCap  int           // per-client broadcast buffer (datagrams)

	NumItems int     // database size
	Zipf     float64 // fleet access skew

	// Monitor, when non-nil, receives live counters for a /debug/load
	// endpoint. Nil runs unmonitored.
	Monitor *obs.LoadMonitor
}

// DefaultConfig sizes a run that finishes in a few wall seconds at any fleet
// size the box can hold: 20 actions per client at 20/s mean, with updates and
// signals paced to span the run.
func DefaultConfig(algo string, clients int) Config {
	return Config{
		Algo:        algo,
		Seed:        1,
		Clients:     clients,
		Steps:       20,
		Rate:        20,
		DozeMeanSec: 0.4,
		Injects:     50,
		Signals:     10,
		IOTimeout:   10 * time.Second,
		RetryBase:   50 * time.Millisecond,
		RetryMax:    4,
		QueueCap:    64,
		NumItems:    128,
		Zipf:        0.8,
	}
}

// Validate reports the first configuration problem.
func (c *Config) Validate() error {
	switch {
	case c.Clients <= 0:
		return fmt.Errorf("loadgen: Clients %d", c.Clients)
	case c.Steps <= 0:
		return fmt.Errorf("loadgen: Steps %d", c.Steps)
	case c.Rate <= 0:
		return fmt.Errorf("loadgen: Rate %v", c.Rate)
	case c.DozeMeanSec <= 0:
		return fmt.Errorf("loadgen: DozeMeanSec %v", c.DozeMeanSec)
	case c.Injects < 0:
		return fmt.Errorf("loadgen: Injects %d", c.Injects)
	case c.Signals < 0:
		return fmt.Errorf("loadgen: Signals %d", c.Signals)
	case c.IOTimeout <= 0:
		return fmt.Errorf("loadgen: IOTimeout %v", c.IOTimeout)
	case c.RetryBase <= 0:
		return fmt.Errorf("loadgen: RetryBase %v", c.RetryBase)
	case c.RetryMax < 0:
		return fmt.Errorf("loadgen: RetryMax %d", c.RetryMax)
	case c.QueueCap <= 0:
		return fmt.Errorf("loadgen: QueueCap %d", c.QueueCap)
	case c.NumItems <= 0:
		return fmt.Errorf("loadgen: NumItems %d", c.NumItems)
	case c.Zipf < 0:
		return fmt.Errorf("loadgen: Zipf %v", c.Zipf)
	}
	return nil
}

// runtimeConfig derives the server configuration: the database changes only
// through the injector (UpdateRate 0), so the harness's truth store can track
// every version, and report intervals are tight enough that a few wall
// seconds exercise the broadcast plane.
func (c *Config) runtimeConfig() serve.RuntimeConfig {
	rc := serve.DefaultRuntimeConfig()
	rc.Algo = c.Algo
	rc.Seed = c.Seed
	rc.DB.NumItems = c.NumItems
	rc.DB.ItemBits = 4096
	rc.DB.UpdateRate = 0
	rc.IR.NumItems = c.NumItems
	rc.IR.Interval = 200 * des.Millisecond
	rc.IR.IntervalMin = 100 * des.Millisecond
	rc.IR.IntervalMax = 2 * des.Second
	rc.IR.PiggyMinGap = 20 * des.Millisecond
	return rc
}

// Counts is the deterministic subset of a Result: identical across same-seed
// runs regardless of wall timing, scheduling, or socket behaviour.
type Counts struct {
	Queries       int64  `json:"queries"`
	Catchups      int64  `json:"catchups"` // scheduled (doze-driven) only
	Injects       int64  `json:"injects"`
	Signals       int64  `json:"signals"`
	TrafficFrames uint64 `json:"traffic_frames"`
	ItemSum       uint64 `json:"item_sum"` // checksum over queried item ids
}

// Result summarizes one load run.
type Result struct {
	Algo    string
	Clients int
	Counts  Counts

	// Timing-dependent observables, exempt from the determinism contract.
	RecoveryCatchups int64 // catch-ups triggered by dropped datagrams
	Retries          int64
	Drops            int64 // datagrams a full per-client buffer discarded
	Stale            int64 // must be zero: the paper's correctness invariant
	Elapsed          time.Duration
	Latency          *metrics.Sketch // answer latency, seconds
	QueueMax         int             // server actor mailbox high-water mark
}

// QPS is the fleet's achieved answer rate.
func (r *Result) QPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Counts.Queries) / r.Elapsed.Seconds()
}

// truthStore is the harness's ground truth: per-item version and update time,
// learned from injection answers. While an injection is in flight — pending
// incremented before the POST, settled from the answer after — reads answer
// des.Never, which conservatively invalidates on the signature path and
// suppresses the staleness sweep until the truth settles; combined with the
// sweep's one-sided version rule this keeps a truth store that momentarily
// lags the wire from ever reporting a false violation.
type truthStore struct {
	mu      sync.Mutex
	ver     []uint64
	at      []des.Time
	pending []int
}

func newTruthStore(n int) *truthStore {
	return &truthStore{ver: make([]uint64, n), at: make([]des.Time, n), pending: make([]int, n)}
}

// UpdatedAt implements ir.Oracle.
func (t *truthStore) UpdatedAt(id int) des.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pending[id] > 0 {
		return des.Never
	}
	return t.at[id]
}

// VersionedAt implements harness.Truth.
func (t *truthStore) VersionedAt(id int) (uint64, des.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pending[id] > 0 {
		return t.ver[id], des.Never
	}
	return t.ver[id], t.at[id]
}

func (t *truthStore) beginInject(id int) {
	t.mu.Lock()
	t.pending[id]++
	t.mu.Unlock()
}

func (t *truthStore) settle(id int, ver uint64, at des.Time) {
	t.mu.Lock()
	if ver > t.ver[id] {
		t.ver[id] = ver
	}
	if at > t.at[id] {
		t.at[id] = at
	}
	t.pending[id]--
	t.mu.Unlock()
}

// observeAnswer folds a query answer into the truth: a version the store has
// not seen yet proves an update happened no later than the answer's AsOf.
// AsOf overestimates the true update time, which errs conservative on every
// consumer (sweep suppressed, signature path invalidates).
func (t *truthStore) observeAnswer(ans capabilities.Answer) {
	t.mu.Lock()
	if ans.Version > t.ver[ans.Item] {
		t.ver[ans.Item] = ans.Version
		if ans.AsOf > t.at[ans.Item] {
			t.at[ans.Item] = ans.AsOf
		}
	}
	t.mu.Unlock()
}

// Run executes one load run: bring up the target, dial the fleet, race
// clients against the injector and the signal pusher, merge per-client
// results in client order. A non-zero stale count is returned as an error —
// the harness's online assertion of the paper's invariant.
func Run(cfg Config) (Result, error) {
	var res Result
	if err := cfg.Validate(); err != nil {
		return res, err
	}
	mon := cfg.Monitor
	if mon == nil {
		mon = &obs.LoadMonitor{}
	}

	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return res, err
	}
	defer udp.Close()
	tgt, err := harness.Start(cfg.Bin, serve.Options{
		Runtime:   cfg.runtimeConfig(),
		WallClock: true,
		UDPTarget: udp.LocalAddr().String(),
		TCPAddr:   "127.0.0.1:0",
		IOTimeout: cfg.IOTimeout,
	})
	if err != nil {
		return res, err
	}
	defer tgt.Close()

	truth := newTruthStore(cfg.NumItems)
	zipf := rng.NewZipf(cfg.NumItems, cfg.Zipf)
	clients := make([]*simClient, cfg.Clients)
	chans := make([]chan []byte, cfg.Clients)
	drops := make([]atomic.Int64, cfg.Clients)
	for i := range clients {
		chans[i] = make(chan []byte, cfg.QueueCap)
		sc, err := newSimClient(i, &cfg, zipf, chans[i], &drops[i])
		if err != nil {
			return res, err
		}
		clients[i] = sc
	}
	for _, sc := range clients {
		wc, err := harness.Dial(tgt.TCPAddr, cfg.IOTimeout)
		if err != nil {
			return res, fmt.Errorf("loadgen: dial client %d: %w", sc.id, err)
		}
		sc.wc = wc
		defer wc.Close()
	}

	mon.Begin(cfg.Clients)
	var distDone sync.WaitGroup
	distDone.Add(1)
	go func() {
		defer distDone.Done()
		distribute(udp, chans, drops, mon)
	}()

	start := time.Now()
	stats := make([]clientStats, cfg.Clients)
	var fleet sync.WaitGroup
	for i, sc := range clients {
		fleet.Add(1)
		go func(i int, sc *simClient) {
			defer fleet.Done()
			stats[i] = sc.run(&cfg, truth, mon)
		}(i, sc)
	}

	injErr := make(chan error, 1)
	var injects int64
	go func() {
		n, err := runInjector(&cfg, tgt, truth, mon)
		injects = n
		injErr <- err
	}()
	sigErr := make(chan error, 1)
	var signals int64
	var frames uint64
	go func() {
		n, f, err := runSignals(&cfg, tgt, mon)
		signals, frames = n, f
		sigErr <- err
	}()

	fleet.Wait()
	if err := <-injErr; err != nil {
		return res, err
	}
	if err := <-sigErr; err != nil {
		return res, err
	}
	elapsed := time.Since(start)

	st, err := tgt.Status()
	if err != nil {
		return res, err
	}

	// Stop the broadcast plane so the distributor exits before we read the
	// drop counters.
	udp.Close()
	distDone.Wait()

	res = Result{
		Algo:    cfg.Algo,
		Clients: cfg.Clients,
		Counts: Counts{
			Injects:       injects,
			Signals:       signals,
			TrafficFrames: frames,
		},
		Elapsed:  elapsed,
		Latency:  metrics.NewDelaySketch(),
		QueueMax: st.QueueMax,
	}
	var firstErr error
	var firstStale string
	for i := range stats {
		s := &stats[i]
		res.Counts.Queries += s.queries
		res.Counts.Catchups += s.catchups
		res.Counts.ItemSum += s.itemSum
		res.RecoveryCatchups += s.recoveries
		res.Retries += s.retries
		res.Stale += s.stale
		res.Latency.Merge(s.sketch)
		if s.err != nil && firstErr == nil {
			firstErr = s.err
		}
		if s.stale > 0 && firstStale == "" {
			firstStale = s.firstStale
		}
	}
	for i := range drops {
		res.Drops += drops[i].Load()
	}
	if firstErr != nil {
		return res, firstErr
	}
	if res.Stale > 0 {
		return res, fmt.Errorf("loadgen: %d stale answers [%s, %d clients] — invalidation contract violated; first: %s",
			res.Stale, cfg.Algo, cfg.Clients, firstStale)
	}
	return res, nil
}

// distribute fans every broadcast datagram out to the fleet: one read, one
// copy, shared read-only by every client's buffered channel. A full buffer
// drops the datagram for that client only — exactly a lossy downlink — and
// the drop counter tells the client to run a recovery catch-up.
func distribute(udp *net.UDPConn, chans []chan []byte, drops []atomic.Int64, mon *obs.LoadMonitor) {
	buf := make([]byte, 1<<16)
	for {
		n, _, err := udp.ReadFromUDP(buf)
		if err != nil {
			return // listener closed: run over
		}
		dg := append([]byte(nil), buf[:n]...)
		for i := range chans {
			select {
			case chans[i] <- dg:
				mon.AddReport()
			default:
				drops[i].Add(1)
				mon.AddDrop()
			}
		}
	}
}

// runInjector drives the database: cfg.Injects updates, exponentially spaced
// to span the fleet's expected run, items and gaps drawn from the dedicated
// injector stream so the count and item sequence are deterministic.
func runInjector(cfg *Config, tgt *harness.Target, truth *truthStore, mon *obs.LoadMonitor) (int64, error) {
	if cfg.Injects == 0 {
		return 0, nil
	}
	src := rng.Stream(cfg.Seed, "load-inject")
	expectedSec := float64(cfg.Steps) / cfg.Rate
	rate := float64(cfg.Injects) / expectedSec
	var done int64
	for k := 0; k < cfg.Injects; k++ {
		time.Sleep(des.FromSeconds(src.Exp(rate)).Std())
		item := src.Intn(cfg.NumItems)
		truth.beginInject(item)
		ans, err := tgt.Inject(item)
		if err != nil {
			truth.settle(item, 0, 0)
			return done, err
		}
		truth.settle(item, ans.Version, ans.AsOf)
		done++
		mon.AddInject()
	}
	return done, nil
}

// runSignals pushes the adaptive schemes' environment: SNRs drawn from the
// signals stream and a downlink-load estimate derived from a traffic
// generator pumped over a private virtual clock, one window per push. The
// push count, SNR values and frame count are deterministic; only the wall
// instants the pushes land at vary.
func runSignals(cfg *Config, tgt *harness.Target, mon *obs.LoadMonitor) (int64, uint64, error) {
	if cfg.Signals == 0 {
		return 0, 0, nil
	}
	src := rng.Stream(cfg.Seed, "load-signals")
	tc := traffic.DefaultConfig(cfg.Clients)
	tc.RateBps = 2e6
	sch := des.NewScheduler()
	gen, err := traffic.New(sch, tc, rng.Stream(cfg.Seed, "load-traffic"), func(int, int) {})
	if err != nil {
		return 0, 0, err
	}
	gen.Start()

	const linkBps = 10e6
	windowSec := float64(cfg.Steps) / cfg.Rate / float64(cfg.Signals)
	vnow := des.Time(0)
	var done int64
	for k := 0; k < cfg.Signals; k++ {
		time.Sleep(des.FromSeconds(windowSec).Std())
		before := gen.GeneratedBits()
		vnow = vnow.Add(des.FromSeconds(windowSec))
		sch.Run(vnow)
		load := float64(gen.GeneratedBits()-before) / (windowSec * linkBps)
		if load > 1 {
			load = 1
		}
		snrs := make([]float64, 2+src.Intn(6))
		for i := range snrs {
			snrs[i] = src.Uniform(5, 30)
		}
		if err := tgt.SetSignals(snrs, load); err != nil {
			return done, gen.GeneratedFrames(), err
		}
		done++
		mon.AddSignals()
	}
	return done, gen.GeneratedFrames(), nil
}
