// Package conformance drives a live wdcserved instance in virtual-time
// lock-step against an in-process serve.Runtime and asserts the two are the
// same engine: byte-identical report datagrams per clock advance,
// byte-identical query answers, piggyback digests and catch-up reports, and
// — through a fleet of harness clients mirroring the core's cache protocol —
// zero stale answers. The DES-style model is the oracle; the network server
// is the system under test.
package conformance

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/serve/capabilities"
	"repro/internal/serve/harness"
)

// readDeadline bounds every read from the target; a conforming server
// responds in microseconds, so hitting this means the server lost a frame or
// a datagram it owed us.
const readDeadline = 10 * time.Second

// Config parameterizes one conformance run.
type Config struct {
	Algo    string // scheme under test (ir.Names)
	Seed    uint64 // drives the db streams, the schedule, and chaos
	Steps   int    // lock-step iterations
	Clients int    // harness clients consuming the broadcast plane

	// Bin, when non-empty, spawns that wdcserved binary as the target;
	// empty runs an in-process serve.Server behind the same sockets.
	Bin string

	// IOTimeout is the server's per-operation connection deadline. Chaos
	// runs shrink it so stalled-frame cuts happen in test time.
	IOTimeout time.Duration

	// Chaos, when non-nil, degrades the client side of the exchange. The
	// server comparison stays exact — chaos tests that the *protocol* keeps
	// clients consistent under loss, not that the server tolerates it.
	Chaos *Chaos
}

// Chaos mirrors the fault layer's report fates and query timeouts onto the
// served planes.
type Chaos struct {
	ReportLossProb  float64       // per client per datagram: never delivered
	ReportTruncProb float64       // per client per datagram: cut mid-flight
	TimeoutProb     float64       // per query: stall the frame, let the server cut, retry
	RetryBase       time.Duration // fault.Backoff base for the retry after a stall
}

// Result summarizes a run. Stale is the count of stale-answer violations —
// the paper's correctness invariant — and must be zero for every algorithm.
type Result struct {
	Broadcasts uint64 // datagrams compared byte-for-byte
	Queries    int
	Injects    int
	Catchups   int
	Retries    int // queries retried after a stalled-frame cut
	Lost       int // datagrams withheld from a client by chaos
	Truncated  int // datagrams cut mid-flight by chaos
	Stale      int // cache entries caught violating the invalidation contract
}

// RuntimeConfigFor sizes a runtime so a few hundred lock-step iterations
// exercise every report kind: a small hot-skewed database updating fast
// relative to the report period, and adaptive intervals tight enough to
// move.
func RuntimeConfigFor(algo string, seed uint64) serve.RuntimeConfig {
	rc := serve.DefaultRuntimeConfig()
	rc.Algo = algo
	rc.Seed = seed
	rc.DB.NumItems = 64
	rc.DB.ItemBits = 4096
	rc.DB.UpdateRate = 30
	rc.DB.HotItems = 8
	rc.IR.NumItems = rc.DB.NumItems
	rc.IR.Interval = 500 * des.Millisecond
	rc.IR.IntervalMin = 200 * des.Millisecond
	rc.IR.IntervalMax = 2 * des.Second
	rc.IR.PiggyMinGap = 50 * des.Millisecond
	return rc
}

// modelOracle reads item ground truth from the model runtime — the stand-in
// for bit-level signature hashing, same as the core's dbOracle. It also
// implements harness.Truth: in lock-step mode the model database IS the
// settled truth, so the staleness sweep is exact.
type modelOracle struct{ rt *serve.Runtime }

func (o modelOracle) UpdatedAt(id int) des.Time { return o.rt.DBItem(id).UpdatedAt }

func (o modelOracle) VersionedAt(id int) (uint64, des.Time) {
	it := o.rt.DBItem(id)
	return it.Version, it.UpdatedAt
}

// Run executes the lock-step conformance protocol: model and target advance
// to the same virtual instants, receive the same queries, updates and
// signals in the same order, and every observable — datagram bytes, answer
// fields, digest bytes, catch-up bytes — must match exactly. Harness clients
// consume the target's datagrams (through chaos, if configured) and are
// swept for stale entries after every step.
func Run(cfg Config) (Result, error) {
	var res Result
	if cfg.Steps <= 0 || cfg.Clients <= 0 {
		return res, fmt.Errorf("conformance: Steps %d, Clients %d", cfg.Steps, cfg.Clients)
	}
	rc := RuntimeConfigFor(cfg.Algo, cfg.Seed)

	var sink [][]byte
	model, err := serve.NewRuntime(rc, func(_ int, dg []byte) {
		sink = append(sink, append([]byte(nil), dg...))
	})
	if err != nil {
		return res, err
	}
	model.Start()

	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return res, err
	}
	defer udp.Close()
	tgt, err := harness.Start(cfg.Bin, serve.Options{
		Runtime:   rc,
		UDPTarget: udp.LocalAddr().String(),
		TCPAddr:   "127.0.0.1:0",
		IOTimeout: cfg.IOTimeout,
	})
	if err != nil {
		return res, err
	}
	defer tgt.Close()
	conn, err := harness.Dial(tgt.TCPAddr, readDeadline)
	if err != nil {
		return res, err
	}
	defer conn.Close()

	oracle := modelOracle{model}
	clients := make([]*harness.Client, cfg.Clients)
	for i := range clients {
		clients[i] = harness.New(16, rc.DB.NumItems,
			rng.Stream(cfg.Seed, fmt.Sprintf("conf-client-%d", i)))
	}
	sched := rng.Stream(cfg.Seed, "conf-schedule")
	chaos := rng.Stream(cfg.Seed, "conf-chaos")
	buf := make([]byte, 1<<16)

	now := des.Time(0)
	for step := 0; step < cfg.Steps; step++ {
		now = now.Add(des.FromSeconds(sched.Uniform(0.01, 0.12)))

		// Advance both engines to the same instant and compare streams.
		before := len(sink)
		model.AdvanceTo(now)
		produced := len(sink) - before
		served, err := tgt.Advance(now)
		if err != nil {
			return res, err
		}
		if int(served) != produced {
			return res, fmt.Errorf("conformance: step %d [%s]: served %d broadcasts, model produced %d",
				step, cfg.Algo, served, produced)
		}
		grams, err := readDatagrams(udp, buf, produced)
		if err != nil {
			return res, err
		}
		for i, dg := range grams {
			if want := sink[before+i]; !bytes.Equal(dg, want) {
				return res, fmt.Errorf("conformance: step %d [%s]: datagram %d/%d differs\nserved %x\nmodel  %x",
					step, cfg.Algo, i+1, produced, dg, want)
			}
		}
		res.Broadcasts += served

		// Fan the broadcast to every harness client, through chaos fates.
		for _, dg := range grams {
			for _, c := range clients {
				switch fate := sampleFate(cfg.Chaos, chaos); fate {
				case fault.Lost:
					res.Lost++
				case fault.Truncated:
					res.Truncated++
					cut := dg[:1+chaos.Intn(len(dg)-1)]
					var junk ir.Report
					if _, err := serve.DecodeDatagram(cut, &junk); err == nil {
						return res, fmt.Errorf("conformance: truncated datagram (%d of %d bytes) decoded",
							len(cut), len(dg))
					}
				default:
					if _, err := c.ProcessWire(dg[1:], oracle); err != nil {
						return res, fmt.Errorf("conformance: step %d: undecodable datagram: %w", step, err)
					}
				}
			}
		}

		// One client/control action per step, mirrored to both engines.
		if err := applyStep(cfg, &res, sched, chaos, tgt, conn, model, clients, oracle, rc.DB.NumItems); err != nil {
			return res, fmt.Errorf("conformance: step %d [%s]: %w", step, cfg.Algo, err)
		}

		// The stale sweep: every cached entry whose item has not changed
		// after the client's consistency point must hold the current
		// version. This is the core's checkConsistency rule applied to the
		// whole cache, shared with the load harness via harness.StaleEntries.
		for _, c := range clients {
			n, _ := c.StaleEntries(oracle)
			res.Stale += n
		}
	}
	return res, nil
}

// readDatagrams collects exactly n broadcast datagrams, reading each into buf
// and copying it out. The lock-step protocol makes n exact: Advance already
// reported how many the server owes.
func readDatagrams(udp *net.UDPConn, buf []byte, n int) ([][]byte, error) {
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		_ = udp.SetReadDeadline(time.Now().Add(readDeadline))
		m, _, err := udp.ReadFromUDP(buf)
		if err != nil {
			return out, fmt.Errorf("conformance: datagram %d/%d: %w", i+1, n, err)
		}
		out = append(out, append([]byte(nil), buf[:m]...))
	}
	return out, nil
}

// sampleFate draws one delivery fate for a datagram-client pair.
func sampleFate(ch *Chaos, src *rng.Source) fault.Fate {
	if ch == nil {
		return fault.Deliver
	}
	switch u := src.Float64(); {
	case u < ch.ReportLossProb:
		return fault.Lost
	case u < ch.ReportLossProb+ch.ReportTruncProb:
		return fault.Truncated
	default:
		return fault.Deliver
	}
}

// applyStep performs one mirrored action: an item query over TCP, an update
// injection, a signals push, or a catch-up exchange.
func applyStep(cfg Config, res *Result, sched, chaos *rng.Source, tgt *harness.Target, conn *harness.Conn,
	model *serve.Runtime, clients []*harness.Client, oracle harness.Truth, numItems int) error {
	switch pick := sched.Float64(); {
	case pick < 0.55: // query
		c := clients[sched.Intn(len(clients))]
		item := sched.Intn(numItems)
		ans, digest, err := queryWithChaos(cfg.Chaos, res, chaos, conn, item)
		if err != nil {
			return err
		}
		mans, mdigest, merr := model.Query(item)
		if merr != nil {
			return merr
		}
		if ans != mans {
			return fmt.Errorf("answer mismatch: served %+v, model %+v", ans, mans)
		}
		if !bytes.Equal(digest, mdigest) {
			return fmt.Errorf("piggyback digest mismatch: served %x, model %x", digest, mdigest)
		}
		// The digest rides the response; process it before caching so the
		// put guard sees the advanced consistency point, as in the core.
		if digest != nil {
			if _, err := c.ProcessWire(digest, oracle); err != nil {
				return err
			}
		}
		c.CacheAnswer(ans, oracle)
		res.Queries++
	case pick < 0.75: // update injection
		item := sched.Intn(numItems)
		ans, err := tgt.Inject(item)
		if err != nil {
			return err
		}
		mans, merr := model.Inject(item)
		if merr != nil {
			return merr
		}
		if ans != mans {
			return fmt.Errorf("inject answer mismatch: served %+v, model %+v", ans, mans)
		}
		res.Injects++
	case pick < 0.90: // environment signals
		snrs := make([]float64, 2+sched.Intn(6))
		for i := range snrs {
			snrs[i] = sched.Uniform(0, 30)
		}
		load := sched.Float64()
		if err := tgt.SetSignals(snrs, load); err != nil {
			return err
		}
		model.SetSignals(snrs, load)
	default: // catch-up exchange
		c := clients[sched.Intn(len(clients))]
		raw, err := conn.Catchup(c.State.LastConsistent)
		if err != nil {
			return err
		}
		want := model.Catchup(c.State.LastConsistent)
		if !bytes.Equal(raw, want.Marshal()) {
			return fmt.Errorf("catchup report mismatch: served %x, model %x", raw, want.Marshal())
		}
		if _, err := c.ProcessWire(raw, oracle); err != nil {
			return err
		}
		res.Catchups++
	}
	return nil
}

// queryWithChaos optionally stalls the query frame first, waits for the
// server's IO deadline to cut the connection, and retries on a fresh one
// after the fault layer's first backoff step: the query's only retry.
func queryWithChaos(ch *Chaos, res *Result, src *rng.Source, conn *harness.Conn, item int) (capabilities.Answer, []byte, error) {
	if ch != nil && src.Bool(ch.TimeoutProb) {
		if err := conn.Stall(); err != nil {
			return capabilities.Answer{}, nil, err
		}
		if err := conn.Reconnect(); err != nil {
			return capabilities.Answer{}, nil, err
		}
		res.Retries++
		time.Sleep(fault.Backoff(des.Duration(ch.RetryBase/time.Microsecond), 0, src.Float64()).Std())
	}
	return conn.Query(item)
}
