package core

import (
	"math/bits"

	"repro/internal/db"
	"repro/internal/des"
	"repro/internal/ir"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/radio"
)

// reqMeta travels up the uplink: a cache-miss request.
type reqMeta struct {
	item int
}

// respMeta rides a downlink response frame.
type respMeta struct {
	item    int
	version uint64
	genAt   des.Time // server read time: the value's consistency timestamp
	piggy   *ir.Report

	// waiters are additional clients whose requests for the same item were
	// coalesced onto this frame (response coalescing enabled only). The
	// frame's Dest is the first requester; waiters decode opportunistically
	// like snoopers and re-request on failure.
	waiters []int
}

// bgMeta rides a background frame.
type bgMeta struct {
	piggy *ir.Report
}

// server is one cell's base-station logic: it runs the cell's invalidation
// algorithm, implements ir.ServerEnv for it, and answers uplink requests from
// the shared database. wdcserved's serve.Runtime hosts the same algorithms
// the same way, so the simulation exercises exactly the engine the network
// server ships.
type server struct {
	cell *Cell
	sim  *Simulation
	dbv  *db.View // lane-private read view of the shared database

	algo  ir.ServerAlgo
	piggy ir.Piggybacker // nil unless the scheme piggybacks (tair, hybrid)

	// downlink load EWMA for the traffic-aware schemes.
	loadEWMA   float64
	busyPrev   float64
	snrScratch []float64

	irBitsSent     uint64
	piggyBitsSent  uint64
	responsesSent  uint64
	requestsServed uint64
	coalesced      uint64

	// inFlightResp tracks queued/in-flight responses by item so later
	// requests for the same item can join them (coalescing).
	inFlightResp map[int]*respMeta

	// Free lists for the per-frame metadata. A respMeta is recycled after
	// its delivery fan-out, by which point onResponseDelivered has retired
	// (or a newer response replaced) its coalescing slot, so nothing still
	// references it; waiters backing arrays are kept across reuses.
	respFree []*respMeta
	bgFree   []*bgMeta
}

const loadSampleEvery = des.Second

func newServer(cell *Cell, algo ir.ServerAlgo) *server {
	return &server{cell: cell, sim: cell.sim,
		dbv:          cell.sim.db.NewView(cell.sch.Now),
		algo:         algo,
		piggy:        ir.AsPiggybacker(algo),
		inFlightResp: make(map[int]*respMeta)}
}

// start arms the algorithm and the load sampler.
func (s *server) start() {
	des.NewTicker(s.cell.sch, loadSampleEvery, "server.load", s.sampleLoad).Start()
	s.algo.Start(s)
}

// sampleLoad maintains an exponentially weighted estimate of downlink busy
// fraction, the signal the traffic-aware interval adaptation consumes.
//
// Only background traffic counts. Query responses are the protocol's own
// elastic load: every report releases a synchronized burst of cache-miss
// responses, so counting them would make the interval adaptation chase its
// own tail — a long interval produces a bigger burst, the burst reads as
// high load, high load stretches the interval further, and the scheme locks
// itself at IntervalMax even on an otherwise idle downlink.
func (s *server) sampleLoad(des.Time) {
	st := s.cell.downlink.Stats()
	busy := st.Busy[mac.KindBackground]
	sample := (busy - s.busyPrev) / loadSampleEvery.Seconds()
	s.busyPrev = busy
	if sample > 1 {
		sample = 1
	}
	const alpha = 0.3
	s.loadEWMA = alpha*sample + (1-alpha)*s.loadEWMA
}

// acquireResp returns a cleared respMeta, reusing its waiters capacity.
func (s *server) acquireResp() *respMeta {
	if n := len(s.respFree); n > 0 {
		m := s.respFree[n-1]
		s.respFree = s.respFree[:n-1]
		*m = respMeta{waiters: m.waiters[:0]}
		return m
	}
	return &respMeta{}
}

// releaseResp recycles a fully fanned-out respMeta.
func (s *server) releaseResp(m *respMeta) {
	m.piggy = nil // the report was recycled separately; drop the reference
	s.respFree = append(s.respFree, m)
}

// acquireBg returns a cleared bgMeta.
func (s *server) acquireBg() *bgMeta {
	if n := len(s.bgFree); n > 0 {
		m := s.bgFree[n-1]
		s.bgFree = s.bgFree[:n-1]
		m.piggy = nil
		return m
	}
	return &bgMeta{}
}

// releaseBg recycles a fully fanned-out bgMeta.
func (s *server) releaseBg(m *bgMeta) {
	m.piggy = nil
	s.bgFree = append(s.bgFree, m)
}

// onRequest handles a delivered uplink request.
func (s *server) onRequest(src int, meta any, now des.Time) {
	if in := s.sim.injector; in != nil && in.InOutage(s.cell.id, now) {
		// A dark base station answers nothing; the client's timeout layer
		// re-asks once the outage ends.
		if _, isQuery := meta.(reqMeta); isQuery && now >= s.sim.warmupAt {
			s.cell.ls.queriesLostToOutage++
		}
		return
	}
	if cu, ok := meta.(catchupReq); ok {
		s.onCatchupRequest(src, cu.since)
		return
	}
	req := meta.(reqMeta)
	it := s.sim.db.Item(req.item) // the client population only queries ids the config declared
	s.requestsServed++
	if s.sim.cfg.CoalesceResponses {
		// Join only if the queued value is still current: a joiner validated
		// after an update must not be served the pre-update value.
		if pending, ok := s.inFlightResp[req.item]; ok && pending.version == it.Version {
			pending.waiters = append(pending.waiters, src)
			s.coalesced++
			return
		}
	}
	resp := s.acquireResp()
	resp.item, resp.version, resp.genAt = it.ID, it.Version, now
	robust := 0
	if s.piggy != nil {
		if pg := s.piggy.Piggyback(now); pg != nil {
			resp.piggy = pg
			robust = pg.SizeBits()
			s.piggyBitsSent += uint64(robust)
			s.cell.traceReport(pg, obs.CarrierResponse, 0)
		}
	}
	s.responsesSent++
	if s.sim.cfg.CoalesceResponses {
		s.inFlightResp[req.item] = resp
	}
	f := s.cell.downlink.AcquireFrame()
	f.Kind = mac.KindResponse
	f.Dest = src
	f.Bits = it.Bits + s.sim.cfg.ResponseOverheadBits
	f.RobustBits = robust
	f.MCS = mac.AutoMCS
	f.Meta = resp
	s.cell.downlink.Enqueue(f)
}

// onResponseDelivered retires the coalescing slot for a departed response.
func (s *server) onResponseDelivered(m *respMeta) {
	if s.sim.cfg.CoalesceResponses && s.inFlightResp[m.item] == m {
		delete(s.inFlightResp, m.item)
	}
}

// onBackground handles a background-traffic arrival.
func (s *server) onBackground(dest int, bits int) {
	if in := s.sim.injector; in != nil && in.InOutage(s.cell.id, s.cell.sch.Now()) {
		return // a dark base station transmits nothing
	}
	meta := s.acquireBg()
	robust := 0
	if s.piggy != nil {
		if pg := s.piggy.Piggyback(s.cell.sch.Now()); pg != nil {
			meta.piggy = pg
			robust = pg.SizeBits()
		}
	}
	f := s.cell.downlink.AcquireFrame()
	f.Kind = mac.KindBackground
	f.Dest = dest
	f.Bits = bits
	f.RobustBits = robust
	f.MCS = mac.AutoMCS
	f.Meta = meta
	accepted := s.cell.downlink.Enqueue(f)
	if !accepted {
		// Admission control refused the frame: its digest never hits the
		// air, so both metadata objects go straight back to their pools.
		s.algo.Recycle(meta.piggy)
		s.releaseBg(meta)
		return
	}
	if robust > 0 {
		s.piggyBitsSent += uint64(robust)
		s.cell.traceReport(meta.piggy, obs.CarrierBackground, 0)
	}
}

// --- ir.ServerEnv ---

// Now implements ir.ServerEnv.
func (s *server) Now() des.Time { return s.cell.sch.Now() }

// UpdatedSince implements ir.ServerEnv.
func (s *server) UpdatedSince(since des.Time, buf []db.Update) []db.Update {
	return s.dbv.UpdatedSince(since, buf)
}

// Broadcast implements ir.ServerEnv.
func (s *server) Broadcast(r *ir.Report, mcs int) {
	if in := s.sim.injector; in != nil && in.InOutage(s.cell.id, s.cell.sch.Now()) {
		// Outage: the report never reaches the air. The algorithm's own
		// schedule state (Seq, PrevAt) advances as generated — exactly the
		// gap the clients' coverage-window rule must survive.
		s.cell.noteReportFault(r.Seq, obs.ReportFaultSuppressed)
		s.algo.Recycle(r)
		return
	}
	s.irBitsSent += uint64(r.SizeBits())
	s.cell.traceReport(r, obs.CarrierIR, mcs)
	f := s.cell.downlink.AcquireFrame()
	f.Kind = mac.KindIR
	f.Dest = mac.Broadcast
	f.Bits = r.SizeBits()
	f.MCS = mcs
	f.Meta = r
	s.cell.downlink.Enqueue(f)
}

// NewTicker implements ir.ServerEnv.
func (s *server) NewTicker(period des.Duration, name string, fn func(des.Time)) *des.Ticker {
	return des.NewTicker(s.cell.sch, period, name, fn)
}

// AwakeSNRs implements ir.ServerEnv. In a real system the base station
// estimates these from CQI feedback; here it reads the channel directly.
// Only clients the cell currently serves are visible to its algorithm.
// The roster bitset's words are walked directly — ascending ids, awake only —
// without materializing a snapshot (nothing here mutates the roster).
func (s *server) AwakeSNRs() []float64 {
	s.snrScratch = s.snrScratch[:0]
	now := s.cell.sch.Now()
	for w, word := range s.cell.roster.words {
		base := w << 6
		for word != 0 {
			id := base | bits.TrailingZeros64(word)
			word &= word - 1
			s.snrScratch = append(s.snrScratch, s.cell.channel.SNRdB(id, now))
		}
	}
	return s.snrScratch
}

// AMC implements ir.ServerEnv.
func (s *server) AMC() *radio.AMC { return s.cell.channel.AMC() }

// DownlinkLoad implements ir.ServerEnv.
func (s *server) DownlinkLoad() float64 { return s.loadEWMA }
