package core

import (
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/mac"
	"repro/internal/obs"
)

// This file wires the fault-injection layer (internal/fault) into the
// simulation: base-station outage scheduling, client-side request retry
// timers, extended disconnections with recovery, and UIR-style catch-up.
// Everything here is inert when cfg.Fault is disabled — no events scheduled,
// no RNG draws, no behaviour deltas — which is what keeps fault-free runs
// byte-identical to the pinned golden fingerprints. Per-client fault state
// lives in the clientTable's cold side table (see table.go), sized only when
// the retry or disconnection layer is armed.

// catchupReq travels up the uplink: a reconnected client asking for the
// update history since its last consistent point (UIR-style recovery).
type catchupReq struct {
	since des.Time
}

// catchupMeta rides the downlink response frame carrying a catch-up report.
// The report is freshly allocated — never from the report arena — because
// its lifetime ends at one client, not at a broadcast fan-out, so it must
// not be recycled through the algorithm's pool.
type catchupMeta struct {
	report *ir.Report
}

// startFaults arms the fault layer: the outage schedule per affected cell,
// the retry layer, and the first disconnection of every client. Called from
// ExecuteCtx after all components started; a nil injector means the layer is
// fully disabled.
func (s *Simulation) startFaults() {
	in := s.injector
	if in == nil {
		return
	}
	fc := in.Config()
	if fc.OutagesEnabled() {
		horizon := des.Time(0).Add(s.cfg.Horizon)
		for _, cell := range s.cells {
			if fc.CellAffected(cell.id) {
				s.scheduleOutageCycle(cell.id, des.Time(0).Add(fc.OutageStart), horizon)
			}
		}
	}
	if fc.RetryEnabled() {
		s.retryOn = true
	}
	if fc.DisconnectsEnabled() {
		for i := 0; i < s.ct.n; i++ {
			c := s.client(i)
			cd := &s.ct.cold[i]
			cd.discFn = c.disconnect
			cd.reconnFn = c.reconnect
			cd.catchupFn = c.onCatchupTimeout
			cd.connEv = c.sch().After(in.DisconnectGap(&cd.fsrc), "fault.disconnect", cd.discFn)
		}
	}
}

// scheduleOutageCycle arms one outage's down edge and chains the next cycle.
// The edges only count and trace: whether the base station is dark at any
// instant is decided by the pure schedule arithmetic (fault.Config.InOutage),
// so event tie-break order can never disagree with the gating.
func (s *Simulation) scheduleOutageCycle(cellID int, start, horizon des.Time) {
	if start > horizon {
		return
	}
	fc := s.injector.Config()
	s.sch.At(start, "fault.outage", func() {
		now := s.sch.Now()
		if now >= s.warmupAt {
			s.outages++
		}
		if tr := s.tr; tr != nil {
			tr.Outage(obs.OutageEvent{At: now, Cell: cellID, Down: true})
		}
		if up := now.Add(fc.OutageLen); up <= horizon {
			s.sch.At(up, "fault.outage", func() {
				if tr := s.tr; tr != nil {
					tr.Outage(obs.OutageEvent{At: s.sch.Now(), Cell: cellID, Down: false})
				}
			})
		}
		if fc.OutagePeriod > 0 {
			s.scheduleOutageCycle(cellID, start.Add(fc.OutagePeriod), horizon)
		}
	})
}

// noteReportFault accounts and traces one injected report fault on the cell's
// own lane (clock and counters both lane-local).
func (cell *Cell) noteReportFault(seq uint64, mode string) {
	s := cell.sim
	now := cell.sch.Now()
	if now >= s.warmupAt {
		switch mode {
		case obs.ReportFaultSuppressed:
			cell.ls.reportsSuppressed++
		case obs.ReportFaultLost:
			cell.ls.reportsFaultLost++
		case obs.ReportFaultTruncated:
			cell.ls.reportsFaultTrunc++
		}
	}
	if tr := s.tr; tr != nil {
		tr.ReportFault(obs.ReportFaultEvent{At: now, Cell: cell.id, Seq: seq, Mode: mode})
	}
}

// --- client: connectivity ---

// disconnect begins an extended disconnection: the radio goes fully dark,
// beyond doze. All in-flight client state is abandoned — retry timers, the
// outstanding-request set, any catch-up exchange — but pending queries
// survive: they are answered after recovery, so their delay statistics carry
// the cost of the disconnection.
func (c client) disconnect() {
	t := &c.sim.ct
	now := c.sch().Now()
	c.cold().connEv = nil // this timer just fired
	if c.online() {
		c.cell().roster.remove(c.id)
	}
	c.clrFlag(cfConnected)
	c.clrFlag(cfRecovering) // a disconnect during recovery restarts it
	if ev := t.queryEv[c.id]; ev != nil {
		c.sch().Cancel(ev)
		t.queryEv[c.id] = nil
	}
	c.clearAllRetries()
	c.cancelCatchup()
	t.outstanding[c.id] = t.outstanding[c.id][:0]
	for i := range t.pending[c.id] {
		t.pending[c.id][i].requested = false
	}
	if now >= c.sim.warmupAt {
		c.ls().disconnects++
	}
	if tr := c.sim.tr; tr != nil {
		tr.Disconnect(obs.DisconnectEvent{At: now, Client: c.id, Down: true})
	}
	cd := c.cold()
	cd.connEv = c.sch().After(c.sim.injector.DisconnectLen(&cd.fsrc), "fault.reconnect", cd.reconnFn)
}

// reconnect ends a disconnection and starts recovery under the configured
// policy. The client counts as "recovering" until its cache is provably
// consistent again: immediately for flush, at the next validating report for
// the window policy, or when the catch-up exchange completes.
func (c client) reconnect() {
	now := c.sch().Now()
	in := c.sim.injector
	c.cold().connEv = nil // this timer just fired
	c.setFlag(cfConnected)
	c.setFlag(cfRecovering)
	c.cold().reconnectedAt = now
	if tr := c.sim.tr; tr != nil {
		tr.Disconnect(obs.DisconnectEvent{At: now, Client: c.id, Down: false})
	}
	if c.flag(cfAwake) {
		c.cell().roster.add(c.id)
		c.scheduleQuery()
	}
	switch in.Config().Recovery {
	case fault.RecoverFlush:
		c.cache().InvalidateAll()
		c.istate().LastConsistent = now
		c.completeRecovery(obs.RecoveryViaFlush)
		if c.flag(cfAwake) {
			c.redrivePending()
		}
	case fault.RecoverCatchup:
		if c.flag(cfAwake) {
			c.sendCatchup()
		}
		// Asleep: wake() starts the catch-up once the radio is back on.
	}
	// RecoverWindow: passive — the next validating report completes recovery
	// via the coverage-window rule (or forces the safe full-report drop).
	c.cold().connEv = c.sch().After(in.DisconnectGap(&c.cold().fsrc), "fault.disconnect", c.cold().discFn)
}

// completeRecovery marks the client consistent again after a disconnection.
func (c client) completeRecovery(via string) {
	if !c.flag(cfRecovering) {
		return
	}
	c.clrFlag(cfRecovering)
	c.cancelCatchup()
	now := c.sch().Now()
	reconnectedAt := c.cold().reconnectedAt
	delay := now.Sub(reconnectedAt).Seconds()
	if reconnectedAt >= c.sim.warmupAt {
		ls := c.ls()
		ls.recoveries++
		ls.recoveryDelay.Add(delay)
	}
	if tr := c.sim.tr; tr != nil {
		tr.Recovery(obs.RecoveryEvent{At: now, Client: c.id,
			Policy: c.sim.cfg.Fault.Recovery.String(), Via: via, DelaySec: delay})
	}
}

// redrivePending is drainPending without a report: after a flush recovery the
// (empty) cache is consistent as of LastConsistent, so misses can refetch
// immediately instead of waiting for the next report.
func (c client) redrivePending() {
	t := &c.sim.ct
	now := c.sch().Now()
	kept := t.pending[c.id][:0]
	for _, q := range t.pending[c.id] {
		if e, ok := c.cache().Get(q.item); ok {
			c.answer(q, now, true)
			if c.sim.cfg.CheckConsistency {
				c.checkConsistency(e, c.istate().LastConsistent)
			}
			continue
		}
		q.requested = true
		if !t.outstandingHas(c.id, q.item) {
			t.outstandingAdd(c.id, q.item)
			c.sendRequest(q.item)
		}
		kept = append(kept, q)
	}
	t.pending[c.id] = kept
	c.maybeDozeAfterDrain()
}

// --- client: request retry layer ---

// sendRequest puts one uplink request on the air and, when the retry layer
// is enabled, arms (or re-arms) its retransmission timer.
func (c client) sendRequest(item int) {
	c.cell().uplink.Send(c.id, reqMeta{item: item})
	if c.sim.retryOn {
		c.armRetry(item)
	}
}

// retryIdx finds item's slot in the client's retry list, or -1.
func (c client) retryIdx(item int) int {
	rs := c.cold().retries
	for k := range rs {
		if rs[k].item == item {
			return k
		}
	}
	return -1
}

// dropRetry removes slot k from the retry list (order-free swap-remove).
func (c client) dropRetry(k int) {
	cd := c.cold()
	last := len(cd.retries) - 1
	cd.retries[k] = cd.retries[last]
	cd.retries[last] = retryEntry{}
	cd.retries = cd.retries[:last]
}

func (c client) armRetry(item int) {
	cd := c.cold()
	k := c.retryIdx(item)
	if k < 0 {
		cd.retries = append(cd.retries, retryEntry{item: item})
		k = len(cd.retries) - 1
	}
	if ev := cd.retries[k].ev; ev != nil {
		c.sch().Cancel(ev)
	}
	cd.retries[k].ev = c.sch().After(c.sim.injector.RetryDelay(cd.retries[k].tries, &cd.fsrc),
		"fault.retry", func() { c.onRetryTimeout(item) })
}

// onRetryTimeout fires when a request went unanswered for the backoff
// window: re-ask, or give up past the retry budget and fall back to waiting
// for the next validating report to re-drive the query.
func (c client) onRetryTimeout(item int) {
	t := &c.sim.ct
	cd := c.cold()
	k := c.retryIdx(item)
	if k < 0 {
		return
	}
	cd.retries[k].ev = nil
	if !t.outstandingHas(c.id, item) {
		c.dropRetry(k) // stale timer: the request was already resolved
		return
	}
	if !c.online() {
		// The radio went dark (doze) with the request still unanswered, so
		// nothing will re-arm this timer. Abandon the request outright —
		// leaving it in outstanding would block every future query for the
		// item from re-asking. The next validating report re-drives it.
		c.dropRetry(k)
		t.outstandingRemove(c.id, item)
		for i := range t.pending[c.id] {
			if t.pending[c.id][i].item == item {
				t.pending[c.id][i].requested = false
			}
		}
		return
	}
	now := c.sch().Now()
	cd.retries[k].tries++
	gaveUp := cd.retries[k].tries > c.sim.cfg.Fault.RetryMax
	if now >= c.sim.warmupAt {
		if gaveUp {
			c.ls().queryGiveups++
		} else {
			c.ls().queryRetries++
		}
	}
	if tr := c.sim.tr; tr != nil {
		tr.QueryRetry(obs.QueryRetryEvent{At: now, Client: c.id, Item: item,
			Attempt: cd.retries[k].tries, GaveUp: gaveUp})
	}
	if gaveUp {
		c.dropRetry(k)
		t.outstandingRemove(c.id, item)
		for i := range t.pending[c.id] {
			if t.pending[c.id][i].item == item {
				t.pending[c.id][i].requested = false
			}
		}
		return
	}
	c.cell().uplink.Send(c.id, reqMeta{item: item})
	c.armRetry(item)
}

// clearRetry retires the timer for one answered (or abandoned) request.
// Safe when the retry layer is disabled.
func (c client) clearRetry(item int) {
	if !c.sim.retryOn {
		return
	}
	if k := c.retryIdx(item); k >= 0 {
		if ev := c.cold().retries[k].ev; ev != nil {
			c.sch().Cancel(ev)
		}
		c.dropRetry(k)
	}
}

// clearAllRetries cancels every retransmission timer (disconnect, handoff).
func (c client) clearAllRetries() {
	if !c.sim.retryOn {
		return
	}
	cd := c.cold()
	for k := range cd.retries {
		if ev := cd.retries[k].ev; ev != nil {
			c.sch().Cancel(ev)
		}
		cd.retries[k] = retryEntry{}
	}
	cd.retries = cd.retries[:0]
}

// --- client: UIR-style catch-up ---

// catchupEv reports the in-flight catch-up timer, nil when the fault layer
// holds no per-client state at all.
func (c client) catchupEv() *des.Event {
	if len(c.sim.ct.cold) == 0 {
		return nil
	}
	return c.cold().catchupEv
}

// sendCatchup asks the serving cell for the update history since the
// client's last consistent point. The exchange is guarded by the same retry
// timer machinery as data requests when the timeout layer is enabled.
func (c client) sendCatchup() {
	cd := c.cold()
	c.setFlag(cfCatchupOut)
	c.cell().uplink.Send(c.id, catchupReq{since: c.istate().LastConsistent})
	if in := c.sim.injector; in.Config().RetryEnabled() {
		cd.catchupEv = c.sch().After(in.RetryDelay(cd.catchupTries, &cd.fsrc),
			"fault.catchup", cd.catchupFn)
	}
}

// onCatchupTimeout fires when a catch-up request went unanswered.
func (c client) onCatchupTimeout() {
	c.cold().catchupEv = nil
	if !c.flag(cfRecovering) || !c.flag(cfCatchupOut) {
		return
	}
	c.clrFlag(cfCatchupOut)
	c.retryCatchup()
}

// retryCatchup re-sends a failed catch-up exchange, bounded by the retry
// budget; past it the client stays in the window-policy fallback (the next
// validating report still completes recovery safely).
func (c client) retryCatchup() {
	cd := c.cold()
	cd.catchupTries++
	if cd.catchupTries > c.sim.cfg.Fault.RetryMax || !c.online() {
		return
	}
	c.sendCatchup()
}

// onCatchup handles the unicast catch-up report.
func (c client) onCatchup(r *ir.Report, ok bool) {
	cd := c.cold()
	if cd.catchupEv != nil {
		c.sch().Cancel(cd.catchupEv)
		cd.catchupEv = nil
	}
	c.clrFlag(cfCatchupOut)
	if !c.flag(cfRecovering) {
		return // a report already recovered us while the catch-up was in flight
	}
	if !ok {
		c.retryCatchup()
		return
	}
	c.stats().reportsDecoded++
	c.sim.rollupReport(c.sim.ct.cell[c.id])
	if c.istate().Process(r, c.cache(), c.sim.oracle, c.src()) {
		c.completeRecovery(obs.RecoveryViaCatchup)
		c.drainPending(r)
	} else {
		c.retryCatchup()
	}
}

// cancelCatchup abandons any catch-up exchange in flight. Safe when the
// fault layer holds no per-client state (nothing to cancel).
func (c client) cancelCatchup() {
	if len(c.sim.ct.cold) == 0 {
		return
	}
	cd := c.cold()
	if cd.catchupEv != nil {
		c.sch().Cancel(cd.catchupEv)
		cd.catchupEv = nil
	}
	c.clrFlag(cfCatchupOut)
	cd.catchupTries = 0
}

// --- server: catch-up ---

// onCatchupRequest serves a reconnected client the update history since its
// last consistent point, as a unicast full report on a response-class frame.
// ir.CatchupReport builds the report (retention clamp, drop-everything
// fallback), as it does for wdcserved.
func (s *server) onCatchupRequest(src int, since des.Time) {
	r := ir.CatchupReport(s, since, s.sim.cfg.DB.Retention)
	s.irBitsSent += uint64(r.SizeBits())
	s.cell.traceReport(r, obs.CarrierCatchup, 0)
	f := s.cell.downlink.AcquireFrame()
	f.Kind = mac.KindResponse
	f.Dest = src
	f.Bits = r.SizeBits() + s.sim.cfg.ResponseOverheadBits
	f.MCS = mac.AutoMCS
	f.Meta = &catchupMeta{report: r}
	s.cell.downlink.Enqueue(f)
}
