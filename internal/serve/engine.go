// Package serve hosts the invalidation-report engine outside the discrete-
// event simulation: the capability backends shared by the DES core and the
// wdcserved network service, the wire framing of the query and broadcast
// planes, and the served runtime that binds an engine to real sockets.
package serve

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/des"
	"repro/internal/ir"
	"repro/internal/serve/capabilities"
)

// Store is the database view an Engine serves from. The DES core adapts its
// lane-private db.View; wdcserved adapts the db.DB it owns.
type Store interface {
	NumItems() int
	Item(id int) db.Item
	// UpdatedSince returns every item updated in (since, now] with its
	// latest update time, appended to buf.
	UpdatedSince(since des.Time, buf []db.Update) []db.Update
	// Retention bounds how far back UpdatedSince may be asked.
	Retention() des.Duration
}

// Mutator extends Store with update ingestion. A store that implements it
// makes the backend an UpdateIngester.
type Mutator interface {
	Store
	// Apply records one update to the item now and reports its new state.
	Apply(item int) db.Item
}

// Engine binds one invalidation algorithm to one database store: the
// server-side engine behind every capability backend. It implements the
// universal capabilities (ReportSource, QueryAnswerer, CatchupProvider);
// NewBackend wraps it with the optional facets the algorithm and store
// actually support.
type Engine struct {
	algo  ir.ServerAlgo
	store Store
}

// Backend is the minimal interface of a composed capability backend; hosts
// discover the rest with capabilities.Detect or direct type assertions.
type Backend interface {
	capabilities.ReportSource
}

// NewBackend composes the capability backend for one algorithm over one
// store: the universal facets always, the piggyback facet only when the
// algorithm piggybacks, the ingest facet only when the store is mutable. The
// honest narrowing matters — a generic composer serves exactly what the
// returned value type-asserts to.
func NewBackend(algo ir.ServerAlgo, store Store) Backend {
	e := &Engine{algo: algo, store: store}
	pig := ir.AsPiggybacker(algo)
	mut, mutable := store.(Mutator)
	switch {
	case pig != nil && mutable:
		return piggyIngestBackend{ingestBackend{e, mut}, pig}
	case pig != nil:
		return piggyBackend{e, pig}
	case mutable:
		return ingestBackend{e, mut}
	default:
		return e
	}
}

// AlgoName implements capabilities.ReportSource.
func (e *Engine) AlgoName() string { return e.algo.Name() }

// StartReports implements capabilities.ReportSource.
func (e *Engine) StartReports(env ir.ServerEnv) { e.algo.Start(env) }

// RecycleReport implements capabilities.ReportSource.
func (e *Engine) RecycleReport(r *ir.Report) { e.algo.Recycle(r) }

// AnswerQuery implements capabilities.QueryAnswerer.
func (e *Engine) AnswerQuery(item int, now des.Time) (capabilities.Answer, error) {
	if item < 0 || item >= e.store.NumItems() {
		return capabilities.Answer{}, fmt.Errorf("serve: item %d out of range [0, %d)", item, e.store.NumItems())
	}
	it := e.store.Item(item)
	return capabilities.Answer{Item: it.ID, Version: it.Version, Bits: it.Bits, AsOf: now}, nil
}

// CatchupSince implements capabilities.CatchupProvider: a unicast full
// report covering (since, now]. The report is freshly allocated — never from
// the algorithm's arena — because its lifetime ends at one client, not at a
// broadcast fan-out, so it must not be recycled through the backend's pool.
func (e *Engine) CatchupSince(since, now des.Time) *ir.Report {
	r := &ir.Report{Kind: ir.KindFull, At: now, PrevAt: now, WindowStart: now}
	// Compared without subtracting since, which a hostile peer can set so
	// that now - since overflows.
	if since <= now && since >= now.Add(-e.store.Retention()) {
		r.WindowStart = since
		r.Items = e.store.UpdatedSince(since, nil)
	}
	// else: the gap outlived the store's update history, or since lies in
	// the future; the empty now-anchored full report forces the client's
	// safe drop-everything path.
	return r
}

// ingestBackend adds the UpdateIngester facet over a mutable store.
type ingestBackend struct {
	*Engine
	mut Mutator
}

// IngestUpdate implements capabilities.UpdateIngester.
func (b ingestBackend) IngestUpdate(item int) (capabilities.Answer, error) {
	if item < 0 || item >= b.mut.NumItems() {
		return capabilities.Answer{}, fmt.Errorf("serve: item %d out of range [0, %d)", item, b.mut.NumItems())
	}
	it := b.mut.Apply(item)
	return capabilities.Answer{Item: it.ID, Version: it.Version, Bits: it.Bits, AsOf: it.UpdatedAt}, nil
}

// piggyBackend adds the PiggybackSource facet.
type piggyBackend struct {
	*Engine
	pig ir.Piggybacker
}

// PiggybackDigest implements capabilities.PiggybackSource.
func (b piggyBackend) PiggybackDigest(now des.Time) *ir.Report { return b.pig.Piggyback(now) }

// piggyIngestBackend composes both optional facets.
type piggyIngestBackend struct {
	ingestBackend
	pig ir.Piggybacker
}

// PiggybackDigest implements capabilities.PiggybackSource.
func (b piggyIngestBackend) PiggybackDigest(now des.Time) *ir.Report { return b.pig.Piggyback(now) }
