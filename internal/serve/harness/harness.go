// Package harness is the reusable client side of the served protocol. Client
// is a cache-holding endpoint running exactly the protocol the DES core's
// clients run — ir.ClientState over a cache.Cache, the put guard that keeps
// an in-flight answer from re-entering a cache a report has already moved
// past, and the staleness sweep that checks every cached entry against
// ground truth. Target starts a server under test, in-process or as a
// spawned wdcserved binary, and drives its HTTP control plane; Conn speaks
// its TCP query plane. Both served-mode drivers are built from it: the
// virtual-time conformance oracle (internal/serve/conformance) and the
// wall-clock load harness (internal/loadgen).
package harness

import (
	"repro/internal/cache"
	"repro/internal/des"
	"repro/internal/ir"
	"repro/internal/rng"
	"repro/internal/serve/capabilities"
)

// Truth extends the signature oracle with version ground truth, which the
// staleness sweep needs: an entry is provably stale only relative to a known
// (version, update time) pair. The conformance oracle reads it from the
// lock-step model's database; the load harness maintains it from the answers
// of the updates it injects.
type Truth interface {
	ir.Oracle
	// VersionedAt reports an item's latest known version and update time.
	// An implementation that is momentarily unsure (an update in flight
	// whose post-state has not come back yet) must answer conservatively:
	// updatedAt = des.Never suppresses both the staleness sweep and the
	// signature clean-path for that item until the truth settles.
	VersionedAt(id int) (version uint64, updatedAt des.Time)
}

// Client is one protocol endpoint: invalidation state, cache, and the
// private RNG stream signature processing draws from. The zero value is not
// usable; construct with New. Clients are not safe for concurrent use — the
// owner serializes report processing against queries, exactly as the DES
// core's event loop does.
type Client struct {
	State ir.ClientState
	Cache *cache.Cache
	Src   *rng.Source

	rep ir.Report // reusable decode buffer for ProcessWire
}

// New builds a client with the given cache capacity over the item universe.
// src drives only signature false-positive draws and may be shared with
// nothing else if the owner needs draw-count isolation.
func New(capacity, universe int, src *rng.Source) *Client {
	return &Client{Cache: cache.New(capacity, universe), Src: src}
}

// Process applies one decoded report, returning whether it advanced the
// client's consistency point.
func (c *Client) Process(r *ir.Report, oracle ir.Oracle) bool {
	return c.State.Process(r, c.Cache, oracle, c.Src)
}

// ProcessWire decodes one report in ir wire form into the client's reusable
// buffer and processes it. The data slice is only read.
func (c *Client) ProcessWire(data []byte, oracle ir.Oracle) (bool, error) {
	if err := ir.UnmarshalInto(&c.rep, data); err != nil {
		return false, err
	}
	return c.Process(&c.rep, oracle), nil
}

// CacheAnswer applies the core's put guard and, when it passes, caches the
// answer: a value is skipped only when the oracle shows its item updated in
// (ans.AsOf, LastConsistent] — a report listed the item while the response
// was in flight and will never re-list it, so caching now would plant an
// entry no future report invalidates. It reports whether the entry was
// cached.
func (c *Client) CacheAnswer(ans capabilities.Answer, oracle ir.Oracle) bool {
	if u := oracle.UpdatedAt(ans.Item); u > ans.AsOf && u <= c.State.LastConsistent {
		return false
	}
	c.Cache.Put(ans.Item, ans.Version, ans.AsOf)
	return true
}

// StaleEntries counts cached entries violating the invalidation contract:
// entries whose item is known (truth settled, update time strictly before
// the client's consistency point) to have a newer version than the one
// cached. Both comparisons are one-sided on purpose. The version side: an
// entry newer than the truth means the truth is lagging the server, not that
// the protocol failed. The time side: an update stamped exactly at the
// consistency point is unorderable from outside — under a microsecond-
// granular clock (coarser still in wall-clock mode, where the virtual clock
// advances in ticks) the update op may have executed after the report
// covering (_, LastConsistent] was generated yet carry the same stamp, so
// only a strictly older update convicts; a genuinely stale entry is caught
// at the next sweep once a report moves the consistency point past the
// stamp. Together these let a harness whose ground truth trails the wire
// (the wall-clock load harness) assert zero — the paper's correctness
// invariant — without false violations. The first offending entry found is
// returned alongside the count, so a failing harness can name it.
func (c *Client) StaleEntries(truth Truth) (stale int, first cache.Entry) {
	asOf := c.State.LastConsistent
	c.Cache.Range(func(e cache.Entry) bool {
		ver, at := truth.VersionedAt(e.ID)
		if at < asOf && e.Version < ver {
			if stale == 0 {
				first = e
			}
			stale++
		}
		return true
	})
	return stale, first
}
