package loadgen

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve/harness"
	"repro/internal/workload"
)

// clientStats is one client's contribution to the run result. The
// deterministic subset (queries, catchups, itemSum) is a function of the
// action stream alone; retries, recoveries, drops and latencies depend on
// wall timing and are explicitly exempt from the determinism contract.
type clientStats struct {
	queries    int64
	catchups   int64
	recoveries int64
	retries    int64
	stale      int64
	firstStale string // the first convicted entry, named in the stale error
	itemSum    uint64
	sketch     *metrics.Sketch
	err        error
}

// simClient is one simulated cache client: the protocol endpoint, its socket,
// its two RNG streams, and its slice of the broadcast fan-out.
type simClient struct {
	id      int
	hc      *harness.Client
	wc      *harness.Conn
	sampler *workload.Sampler
	action  *rng.Source   // think times, item picks, action choice
	proto   *rng.Source   // sig draws (via hc.Src) and retry jitter
	reports <-chan []byte // broadcast datagrams from the distributor
	dropped *atomic.Int64 // datagrams the distributor could not deliver
}

// newSimClient wires one client. Two streams per client keep the
// deterministic counts honest: every draw that decides WHAT the client does
// comes from the action stream, every draw whose count depends on wall timing
// (signature checks per received report, retry jitter) comes from the proto
// stream, so a dropped datagram or a retry can never shift the action
// sequence.
func newSimClient(id int, cfg *Config, zipf *rng.Zipf, reports <-chan []byte, dropped *atomic.Int64) (*simClient, error) {
	action := rng.Stream(cfg.Seed, fmt.Sprintf("load-client-%d", id))
	proto := rng.Stream(cfg.Seed, fmt.Sprintf("load-client-%d-proto", id))
	wcfg := workload.Config{
		QueryRate:    cfg.Rate,
		Zipf:         cfg.Zipf,
		NumItems:     cfg.NumItems,
		AwakeMeanSec: 100,
	}
	sampler, err := workload.NewSampler(wcfg, zipf, action)
	if err != nil {
		return nil, err
	}
	return &simClient{
		id:      id,
		hc:      harness.New(cacheCapacity, cfg.NumItems, proto),
		sampler: sampler,
		action:  action,
		proto:   proto,
		reports: reports,
		dropped: dropped,
	}, nil
}

// cacheCapacity is each client's cache size; small relative to the item
// universe so the Zipf tail keeps churning entries.
const cacheCapacity = 16

// run executes the client's step schedule: think, act (query or doze+catch-
// up), drain the broadcast plane, sweep for stale entries. It returns when
// the schedule is exhausted or the wire fails beyond the retry budget.
func (sc *simClient) run(cfg *Config, truth *truthStore, mon *obs.LoadMonitor) clientStats {
	st := clientStats{sketch: metrics.NewDelaySketch()}
	defer mon.ClientDone()
	var dropsSeen int64
	for step := 0; step < cfg.Steps; step++ {
		if !sc.drain(truth, &st) {
			return st
		}
		// A dropped datagram means this client missed a report the rest of
		// the fleet saw; recover by catching up from the last consistent
		// point, the same move a reconnecting client makes.
		if d := sc.dropped.Load(); d > dropsSeen {
			dropsSeen = d
			if !sc.catchup(cfg, truth, mon, &st, true) {
				return st
			}
		}
		time.Sleep(sc.sampler.NextQueryGap().Std())
		if sc.action.Float64() < queryFraction {
			if !sc.query(cfg, truth, mon, &st) {
				return st
			}
		} else {
			// Doze: radio off long enough to outlive report windows, then
			// the catch-up exchange a waking client runs.
			time.Sleep(des.FromSeconds(sc.action.Exp(1 / cfg.DozeMeanSec)).Std())
			if !sc.drain(truth, &st) {
				return st
			}
			if !sc.catchup(cfg, truth, mon, &st, false) {
				return st
			}
		}
		// The online sweep: assert the invariant now, not just at the end.
		sc.sweep(truth, mon, &st)
	}
	if sc.drain(truth, &st) {
		sc.sweep(truth, mon, &st)
	}
	return st
}

// sweep counts the client's stale cache entries, describing the first one
// the run convicts.
func (sc *simClient) sweep(truth *truthStore, mon *obs.LoadMonitor, st *clientStats) {
	n, e := sc.hc.StaleEntries(truth)
	if n == 0 {
		return
	}
	if st.stale == 0 {
		st.firstStale = fmt.Sprintf("client %d item %d version %d cached as of %v, consistent to %v",
			sc.id, e.ID, e.Version, e.CachedAt, sc.hc.State.LastConsistent)
	}
	st.stale += int64(n)
	mon.AddStale(n)
}

// queryFraction is the action split: query vs doze+catch-up.
const queryFraction = 0.75

// drain processes every queued broadcast datagram.
func (sc *simClient) drain(truth *truthStore, st *clientStats) bool {
	for {
		select {
		case dg := <-sc.reports:
			if len(dg) < 1 {
				st.err = fmt.Errorf("loadgen: client %d: empty datagram", sc.id)
				return false
			}
			if _, err := sc.hc.ProcessWire(dg[1:], truth); err != nil {
				st.err = fmt.Errorf("loadgen: client %d: undecodable datagram: %w", sc.id, err)
				return false
			}
		default:
			return true
		}
	}
}

// query runs one query exchange with bounded-backoff retries, records answer
// latency, processes any piggybacked digest, and caches through the put
// guard.
func (sc *simClient) query(cfg *Config, truth *truthStore, mon *obs.LoadMonitor, st *clientStats) bool {
	item := sc.sampler.NextItem()
	st.itemSum += uint64(item)
	t0 := time.Now()
	ans, digest, err := sc.wc.Query(item)
	for tries := 0; err != nil && tries < cfg.RetryMax; tries++ {
		st.retries++
		mon.AddRetries(1)
		time.Sleep(fault.Backoff(des.Duration(cfg.RetryBase/time.Microsecond), tries, sc.proto.Float64()).Std())
		if rerr := sc.wc.Reconnect(); rerr != nil {
			err = rerr
			continue
		}
		ans, digest, err = sc.wc.Query(item)
	}
	if err != nil {
		st.err = fmt.Errorf("loadgen: client %d: query item %d: %w", sc.id, item, err)
		return false
	}
	st.sketch.Observe(time.Since(t0).Seconds())
	if digest != nil {
		if _, err := sc.hc.ProcessWire(digest, truth); err != nil {
			st.err = fmt.Errorf("loadgen: client %d: bad digest: %w", sc.id, err)
			return false
		}
	}
	sc.hc.CacheAnswer(ans, truth)
	truth.observeAnswer(ans)
	st.queries++
	mon.AddQuery()
	return true
}

// catchup runs one catch-up exchange from the client's consistency point.
// recovery marks drop-triggered catch-ups, which are counted apart from the
// scheduled ones because their count is timing-dependent.
func (sc *simClient) catchup(cfg *Config, truth *truthStore, mon *obs.LoadMonitor, st *clientStats, recovery bool) bool {
	raw, err := sc.wc.Catchup(sc.hc.State.LastConsistent)
	for tries := 0; err != nil && tries < cfg.RetryMax; tries++ {
		st.retries++
		mon.AddRetries(1)
		time.Sleep(fault.Backoff(des.Duration(cfg.RetryBase/time.Microsecond), tries, sc.proto.Float64()).Std())
		if rerr := sc.wc.Reconnect(); rerr != nil {
			err = rerr
			continue
		}
		raw, err = sc.wc.Catchup(sc.hc.State.LastConsistent)
	}
	if err != nil {
		st.err = fmt.Errorf("loadgen: client %d: catchup: %w", sc.id, err)
		return false
	}
	if _, err := sc.hc.ProcessWire(raw, truth); err != nil {
		st.err = fmt.Errorf("loadgen: client %d: bad catchup report: %w", sc.id, err)
		return false
	}
	if recovery {
		st.recoveries++
	} else {
		st.catchups++
	}
	mon.AddCatchup()
	return true
}
