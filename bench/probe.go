package bench

import (
	"time"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/serve"
)

// probeOps is how many calls each stage probe times.
const probeOps = 20_000

// stageProbes splits a served query's round trip into stages by timing
// direct calls on a virtual-clock engine built with the workload's runtime
// configuration and signals. The virtual clock advances at the workload's
// fixed open-loop rate, and the run's acknowledged updates are replayed in
// order at the injector's rate (after a catch-up lookback of pre-fill), so
// digests, reports and catch-ups carry the history they carried in the run:
//
//	serve.engine_query_ns     Runtime.Query, piggyback digest marshal included
//	serve.engine_catchup_ns   Runtime.Catchup plus Marshal (workloads with catch-ups)
//	serve.engine_inject_ns    Runtime.Inject (workloads with updates)
//	serve.engine_broadcast_ns Runtime.AdvanceTo calls that emitted reports, per
//	                          report: build and encoding
//	serve.actor_handoff_ns    Server.Query minus Runtime.Query: the mailbox round trip
//	serve.socket_residual_us  client.rtt_p50_us minus engine and handoff:
//	                          network, system calls and scheduling
//
// Each timing but the broadcast one is the median over probeOps calls.
func stageProbes(sh servedShape, seed uint64, updates []int, rttP50us float64) ([]Metric, error) {
	rc := servedRuntimeConfig(seed)
	rt, err := serve.NewRuntime(rc, nil)
	if err != nil {
		return nil, err
	}
	rt.Start()
	if err := rt.SetSignals(signalSNRs(seed), signalLoad); err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Options{Runtime: rc})
	if err != nil {
		return nil, err
	}
	defer srv.Shutdown()
	if err := srv.SetSignals(signalSNRs(seed), signalLoad); err != nil {
		return nil, err
	}

	var injectNS []float64
	var advNS float64
	var reports uint64
	var replayed int
	var updStep des.Duration
	if sh.updateRate > 0 {
		updStep = des.FromSeconds(1 / sh.updateRate)
	}
	// advance moves both engines to t, posting every update due by then; it
	// times the runtime's advances and injects.
	advance := func(t des.Time) error {
		for len(updates) > 0 {
			at := des.Time(0).Add(des.Duration(replayed+1) * updStep)
			if at > t {
				break
			}
			item := updates[replayed%len(updates)]
			replayed++
			if err := advanceTimed(rt, at, &advNS, &reports); err != nil {
				return err
			}
			start := time.Now()
			_, err := rt.Inject(item)
			injectNS = append(injectNS, float64(time.Since(start)))
			if err != nil {
				return err
			}
			if _, err := srv.AdvanceTo(at); err != nil {
				return err
			}
			if _, err := srv.Inject(item); err != nil {
				return err
			}
		}
		if err := advanceTimed(rt, t, &advNS, &reports); err != nil {
			return err
		}
		_, err := srv.AdvanceTo(t)
		return err
	}

	now := des.Time(0).Add(catchupLookback)
	if err := advance(now); err != nil {
		return nil, err
	}
	gap := des.FromSeconds(1 / sh.rate)
	zipf := rng.NewZipf(servedItems, servedZipf)
	src := rng.Stream(seed, "bench.probe")
	queryNS := make([]float64, 0, probeOps)
	actorNS := make([]float64, 0, probeOps)
	var catchupNS []float64
	for i := 0; i < probeOps; i++ {
		now = now.Add(gap)
		if err := advance(now); err != nil {
			return nil, err
		}
		item := zipf.Sample(src)
		t := time.Now()
		if _, _, err := rt.Query(item); err != nil {
			return nil, err
		}
		queryNS = append(queryNS, float64(time.Since(t)))
		t = time.Now()
		if _, _, err := srv.Query(item); err != nil {
			return nil, err
		}
		actorNS = append(actorNS, float64(time.Since(t)))
		if sh.catchupFrac > 0 {
			t = time.Now()
			_ = rt.Catchup(now.Add(-catchupLookback)).Marshal()
			catchupNS = append(catchupNS, float64(time.Since(t)))
		}
	}

	engine := quantile(queryNS, 0.5)
	handoff := quantile(actorNS, 0.5) - engine
	ms := []Metric{
		{Name: "serve.engine_query_ns", Unit: "ns", Value: engine},
		{Name: "serve.actor_handoff_ns", Unit: "ns", Value: handoff},
		{Name: "serve.socket_residual_us", Unit: "us", Value: rttP50us - (engine+handoff)/1e3},
		{Name: "serve.engine_broadcast_ns", Unit: "ns", Value: advNS / float64(max(reports, 1))},
	}
	if len(catchupNS) > 0 {
		ms = append(ms, Metric{Name: "serve.engine_catchup_ns", Unit: "ns", Value: quantile(catchupNS, 0.5)})
	}
	if len(injectNS) > 0 {
		ms = append(ms, Metric{Name: "serve.engine_inject_ns", Unit: "ns", Value: quantile(injectNS, 0.5)})
	}
	return ms, nil
}

// advanceTimed advances rt to t; when the advance emitted reports, it adds
// its time to *ns and the reports to *reports.
func advanceTimed(rt *serve.Runtime, t des.Time, ns *float64, reports *uint64) error {
	if t <= rt.Now() {
		return nil
	}
	start := time.Now()
	n, err := rt.AdvanceTo(t)
	if n > 0 {
		*ns += float64(time.Since(start))
		*reports += n
	}
	return err
}
