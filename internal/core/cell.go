package core

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Cell is one base station's worth of wiring: radio channel, downlink and
// uplink MAC, background traffic source, invalidation server and algorithm
// state, and the awake roster of the clients it currently serves. The
// Simulation is the composition root: it owns the shared scheduler, database
// and client population and composes one Cell per base station (one in the
// classic single-cell configuration).
type Cell struct {
	id  int
	sim *Simulation

	// sch is the cell's execution lane. In serial runs it aliases the
	// simulation's scheduler, so every component wired to it behaves exactly
	// as before lanes existed; in parallel runs it is a private scheduler
	// advancing in lockstep epochs with its peers (see parallel.go).
	sch *des.Scheduler

	// ls receives the lane-side statistics. Serial runs share one instance
	// across all cells; parallel runs give each cell its own (see laneStats).
	ls *laneStats

	channel  *radio.Channel
	downlink *mac.Downlink
	uplink   *mac.Uplink
	bg       *traffic.Generator
	server   *server
	refRate  float64 // reference downlink bit rate for load calibration

	// roster holds the set of awake clients served by this cell as a
	// fixed-universe bitset, maintained by doze/wake (and handoff): membership
	// flips are O(1) and fan-out materialization walks words, so neither ever
	// scans the population. rosterScratch is the reusable snapshot buffer
	// fan-out loops iterate: a visited client may doze itself mid-loop
	// (mutating roster), so loops walk a snapshot and re-check membership per
	// visit, exactly reproducing the historical full-scan semantics.
	roster        idSet
	rosterScratch []int

	// warmup snapshots
	snapDown mac.DownlinkStats
	snapUp   snapshotUplink
	snapIR   uint64
	snapPig  uint64
}

// cellStream names a per-cell RNG stream. Single-cell simulations keep the
// historical unsuffixed names so every pre-topology run replays bit-for-bit.
func cellStream(base string, k, numCells int) string {
	if numCells <= 1 {
		return base
	}
	return fmt.Sprintf("%s.c%d", base, k)
}

// cellLocator routes one cell's link distances through the topology model.
type cellLocator struct {
	topo *topology.Model
	cell int
}

// DistanceM implements radio.Locator.
func (l cellLocator) DistanceM(i int, t des.Time) float64 {
	return l.topo.DistanceToCellM(i, l.cell, t)
}

// snapLocator serves link distances from the simulation's barrier-refreshed
// position snapshot instead of the mobility walkers. Parallel lanes must use
// it: the walkers advance lazily on query, so a lane asking for a foreign
// client's position (a background frame to a client of another cell) would
// mutate state owned by that client's lane. The snapshot is written only at
// barriers, making reads race-free; positions are at most one handoff-check
// period stale, the same granularity at which cell association itself is
// decided. The distance math mirrors Model.DistanceToCellM exactly.
type snapLocator struct {
	sim    *Simulation
	cx, cy float64
	minD   float64
}

// DistanceM implements radio.Locator.
func (l snapLocator) DistanceM(i int, _ des.Time) float64 {
	d := math.Hypot(l.sim.posX[i]-l.cx, l.sim.posY[i]-l.cy)
	if d < l.minD {
		d = l.minD
	}
	return d
}

// newCell wires one cell. The construction order (channel → downlink →
// uplink → algorithm → server → reference rate → traffic) mirrors the
// historical single-cell wiring exactly, so a one-cell simulation makes the
// same draws from the same streams as before the componentization.
func newCell(sim *Simulation, k, numCells int, arena *Arena) (*Cell, error) {
	cfg := &sim.cfg
	cell := &Cell{id: k, sim: sim, sch: sim.sch, ls: sim.lanes[0]}
	if sim.par {
		if arena != nil {
			cell.sch = arena.takeSched()
		}
		if cell.sch == sim.sch || cell.sch == nil {
			cell.sch = des.NewScheduler()
		}
		cell.ls = sim.lanes[k]
	}

	ccfg := cfg.Channel
	var loc radio.Locator
	if sim.topo != nil {
		// The topology owns placement and motion: every link's distance
		// routes through the grid, superseding the single-cell placement
		// knobs (annulus drop, Params.Mobility).
		ccfg.UseGeometry = true
		ccfg.Mobility = nil
		if sim.par {
			cx, cy := sim.topo.Center(k)
			loc = snapLocator{sim: sim, cx: cx, cy: cy, minD: cfg.Topology.MinDistanceM}
		} else {
			loc = cellLocator{topo: sim.topo, cell: k}
		}
	}
	cell.roster = newIDSet(cfg.NumClients)
	chSrc := rng.Stream(cfg.Seed, cellStream("channel", k, numCells))
	if arena != nil {
		if ch := arena.takeChannel(); ch != nil {
			if err := ch.ResetWithLocator(ccfg, radio.DefaultAMC(), cfg.NumClients, chSrc, loc); err != nil {
				return nil, err
			}
			cell.channel = ch
		}
	}
	if cell.channel == nil {
		ch, err := radio.NewWithLocator(ccfg, radio.DefaultAMC(), cfg.NumClients, chSrc, loc)
		if err != nil {
			return nil, err
		}
		cell.channel = ch
	}

	cell.downlink = mac.NewDownlink(cell.sch, cell.channel, cfg.Downlink, cell.deliver)
	cell.downlink.SetCell(k)
	cell.uplink = mac.NewUplink(cell.sch, cfg.Uplink, rng.Stream(cfg.Seed, cellStream("uplink", k, numCells)),
		func(src int, meta any, now des.Time) { cell.server.onRequest(src, meta, now) })
	cell.uplink.SetAttemptHook(cell.onUplinkSlot)

	algo, err := ir.New(cfg.Algorithm, cfg.IR)
	if err != nil {
		return nil, err
	}
	cell.server = newServer(cell, algo)

	// Background load calibration: offered rate is TrafficLoad × the rate
	// link adaptation would pick at the population's average mean SNR, as
	// seen from this cell's base station.
	cell.refRate = cell.referenceRate()
	tcfg := cfg.Traffic
	tcfg.RateBps = cfg.TrafficLoad * cell.refRate
	cell.bg, err = traffic.New(cell.sch, tcfg, rng.Stream(cfg.Seed, cellStream("traffic", k, numCells)),
		cell.server.onBackground)
	if err != nil {
		return nil, err
	}
	return cell, nil
}

// referenceRate reports the effective downlink rate for unicast traffic to
// a uniformly random client: the harmonic mean of the per-client rates link
// adaptation picks at each client's mean SNR. The harmonic mean is the right
// aggregate because airtime per bit, not bits per second, is what adds up
// across frames — so TrafficLoad ≈ the utilization the background traffic
// actually contributes.
func (cell *Cell) referenceRate() float64 {
	amc := cell.channel.AMC()
	invSum := 0.0
	for i := 0; i < cell.channel.N(); i++ {
		idx, _ := amc.Select(cell.channel.MeanSNRdB(i))
		invSum += 1 / amc.Table[idx].BitRate(amc.SymbolRate)
	}
	return float64(cell.channel.N()) / invSum
}

// awakeSnapshot materializes the roster bitset into the reusable scratch
// buffer, ascending, so a fan-out loop survives visited clients dozing
// themselves mid-iteration.
func (cell *Cell) awakeSnapshot() []int {
	cell.rosterScratch = cell.roster.appendIDs(cell.rosterScratch[:0])
	return cell.rosterScratch
}

// deliver is the downlink completion fanout: reports go to every awake
// client the cell serves (individual decode), responses to their
// destination, piggybacked digests to every awake overhearer. In a
// multi-cell run a unicast frame may complete after its destination was
// handed to another cell; such frames are wasted airtime and are dropped at
// delivery (the handoff already rescheduled the query), and every roster
// visit re-checks membership alongside wakefulness.
func (cell *Cell) deliver(f *mac.Frame, ok bool, mcs int, now des.Time) {
	s := cell.sim
	amc := cell.channel.AMC()
	airtime := amc.Airtime(0, s.cfg.Downlink.HeaderBits+f.RobustBits) +
		amc.Airtime(mcs, f.Bits)
	switch m := f.Meta.(type) {
	case *ir.Report:
		if in := s.injector; in != nil {
			if fate := in.ReportFate(cell.id); fate != fault.Deliver {
				cell.deliverFaultedReport(m, fate, airtime, now)
				return
			}
		}
		for _, id := range cell.awakeSnapshot() {
			if !s.ct.online(id) || int(s.ct.cell[id]) != cell.id {
				continue
			}
			s.chargeRx(id, airtime, now)
			if cell.channel.Decode(id, now, mcs, f.Bits) {
				s.client(id).onReport(m)
			} else {
				s.client(id).onReportLost()
			}
		}
		cell.server.algo.Recycle(m)
	case *respMeta:
		cell.server.onResponseDelivered(m)
		switch dest := f.Dest; {
		case int(s.ct.cell[dest]) != cell.id:
			cell.ls.respDeparted++
		case !s.ct.connected(dest):
			cell.ls.respDisconnected++
		default:
			if s.ct.awake(dest) {
				s.chargeRx(dest, airtime, now)
			}
			s.client(dest).onResponse(m, ok)
		}
		for _, w := range m.waiters {
			if int(s.ct.cell[w]) != cell.id {
				cell.ls.respDeparted++
				continue
			}
			if !s.ct.connected(w) {
				cell.ls.respDisconnected++
				continue
			}
			if s.ct.awake(w) {
				s.chargeRx(w, airtime, now)
			}
			// Waiters decode independently of the addressed destination;
			// a failed decode falls back to their own re-request timer via
			// onResponse's !ok path.
			s.client(w).onResponse(m, cell.channel.Decode(w, now, mcs, f.Bits))
		}
		if s.cfg.SnoopResponses {
			for _, id := range cell.awakeSnapshot() {
				if !s.ct.online(id) || int(s.ct.cell[id]) != cell.id || id == f.Dest {
					continue
				}
				s.chargeRx(id, airtime, now)
				if cell.channel.Decode(id, now, mcs, f.Bits) {
					s.client(id).onSnoop(m)
				}
			}
		}
		cell.fanPiggy(m.piggy, f.RobustBits, now)
		cell.server.releaseResp(m)
	case *bgMeta:
		if int(s.ct.cell[f.Dest]) == cell.id && s.ct.online(f.Dest) {
			s.chargeRx(f.Dest, airtime, now)
		}
		cell.fanPiggy(m.piggy, f.RobustBits, now)
		cell.server.releaseBg(m)
	case *catchupMeta:
		switch dest := f.Dest; {
		case int(s.ct.cell[dest]) != cell.id:
			cell.ls.respDeparted++
		case !s.ct.connected(dest):
			cell.ls.respDisconnected++
		default:
			if s.ct.awake(dest) {
				s.chargeRx(dest, airtime, now)
			}
			s.client(dest).onCatchup(m.report, ok)
		}
	default:
		panic(fmt.Sprintf("core: unknown frame meta %T", f.Meta))
	}
}

// fanPiggy lets every awake client of the cell receive a piggybacked digest.
// The digest travels in the frame's robust control portion (base-rate MCS),
// so even clients that could not decode the data payload usually get it;
// they pay receive energy only for that portion and power down for the data
// body.
func (cell *Cell) fanPiggy(pg *ir.Report, robustBits int, now des.Time) {
	if pg == nil {
		return
	}
	s := cell.sim
	headBits := s.cfg.Downlink.HeaderBits + robustBits
	headAir := cell.channel.AMC().Airtime(0, headBits)
	for _, id := range cell.awakeSnapshot() {
		if !s.ct.online(id) || int(s.ct.cell[id]) != cell.id {
			continue
		}
		s.chargeRx(id, headAir, now)
		if cell.channel.Decode(id, now, 0, headBits) {
			s.client(id).onReport(pg)
		} else {
			s.client(id).onReportLost()
		}
	}
	cell.server.algo.Recycle(pg)
}

// deliverFaultedReport applies an injected fate to a standalone report that
// reached the air. Lost: the frame vanishes in transit — nobody hears it and
// nobody pays receive energy. Truncated: every awake receiver pays the full
// airtime but the CRC fails, so each counts the report as lost; that is the
// channel-loss path the coverage-window rule already survives, forced
// deterministically instead of by SNR.
func (cell *Cell) deliverFaultedReport(r *ir.Report, fate fault.Fate, airtime float64, now des.Time) {
	s := cell.sim
	mode := obs.ReportFaultLost
	if fate == fault.Truncated {
		mode = obs.ReportFaultTruncated
		for _, id := range cell.awakeSnapshot() {
			if !s.ct.online(id) || int(s.ct.cell[id]) != cell.id {
				continue
			}
			s.chargeRx(id, airtime, now)
			s.client(id).onReportLost()
		}
	}
	cell.noteReportFault(r.Seq, mode)
	cell.server.algo.Recycle(r)
}

// traceReport emits a ReportBroadcastEvent for a report leaving this cell's
// server, whether standalone (carrier "ir") or piggybacked on a data frame.
// mcs is the scheme the report's bits travel at: the explicit broadcast MCS
// for standalone reports, the robust base scheme (0) for piggybacked digests.
func (cell *Cell) traceReport(r *ir.Report, carrier string, mcs int) {
	s := cell.sim
	tr := s.tr
	if tr == nil {
		return
	}
	var items []int
	if len(r.Items) > 0 {
		items = make([]int, len(r.Items))
		for i, u := range r.Items {
			items[i] = u.ID
		}
	}
	tr.ReportBroadcast(obs.ReportBroadcastEvent{
		At:          cell.sch.Now(),
		Cell:        cell.id,
		Seq:         r.Seq,
		Kind:        r.Kind.String(),
		Carrier:     carrier,
		MCS:         mcs,
		SizeBits:    r.SizeBits(),
		WindowStart: r.WindowStart,
		Sig:         r.Sig != nil,
		Items:       items,
	})
}
