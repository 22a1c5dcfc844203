package harness

import (
	"testing"

	"repro/internal/db"
	"repro/internal/des"
	"repro/internal/ir"
	"repro/internal/rng"
	"repro/internal/serve/capabilities"
)

// tableTruth is a settable ground-truth store for the universe.
type tableTruth struct {
	ver []uint64
	at  []des.Time
}

func newTableTruth(n int) *tableTruth {
	return &tableTruth{ver: make([]uint64, n), at: make([]des.Time, n)}
}

func (t *tableTruth) UpdatedAt(id int) des.Time             { return t.at[id] }
func (t *tableTruth) VersionedAt(id int) (uint64, des.Time) { return t.ver[id], t.at[id] }

func (t *tableTruth) set(id int, ver uint64, at des.Time) {
	t.ver[id], t.at[id] = ver, at
}

func newClient() *Client { return New(8, 16, rng.Stream(1, "harness-test")) }

func TestCacheAnswerPutGuard(t *testing.T) {
	truth := newTableTruth(16)
	c := newClient()
	c.State.LastConsistent = des.Time(10 * des.Second)

	// Item updated inside (AsOf, LastConsistent]: the answer is already
	// outdated and a processed report has listed it — caching is refused.
	truth.set(3, 2, des.Time(8*des.Second))
	if c.CacheAnswer(capabilities.Answer{Item: 3, Version: 1, AsOf: des.Time(5 * des.Second)}, truth) {
		t.Fatal("put guard must refuse an answer outdated inside (AsOf, LastConsistent]")
	}
	if c.Cache.Contains(3) {
		t.Fatal("refused answer must not be cached")
	}

	// Item updated before AsOf: the answer already reflects it, cache it.
	truth.set(4, 2, des.Time(3*des.Second))
	if !c.CacheAnswer(capabilities.Answer{Item: 4, Version: 2, AsOf: des.Time(5 * des.Second)}, truth) {
		t.Fatal("answer newer than the update must be cached")
	}

	// Item updated after LastConsistent: no report has covered the update
	// yet, so the guard cannot (and must not) refuse.
	truth.set(5, 3, des.Time(12*des.Second))
	if !c.CacheAnswer(capabilities.Answer{Item: 5, Version: 2, AsOf: des.Time(5 * des.Second)}, truth) {
		t.Fatal("update past LastConsistent must not trip the guard")
	}
}

func TestStaleEntriesRules(t *testing.T) {
	truth := newTableTruth(16)
	c := newClient()
	c.State.LastConsistent = des.Time(10 * des.Second)
	c.Cache.Put(2, 1, des.Time(des.Second)) // ahead of its truth: never convicted
	c.Cache.Put(1, 1, des.Time(des.Second))

	// Truth settled, newer version, update covered by the consistency
	// point: a genuine violation, and the entry named is the offender.
	truth.set(1, 2, des.Time(5*des.Second))
	if got, first := c.StaleEntries(truth); got != 1 || first.ID != 1 || first.Version != 1 {
		t.Fatalf("settled newer truth: StaleEntries = %d, first %+v; want 1, item 1 at version 1", got, first)
	}

	// Update past the consistency point: not yet the protocol's problem.
	truth.set(1, 2, des.Time(12*des.Second))
	if got, _ := c.StaleEntries(truth); got != 0 {
		t.Fatalf("uncovered update flagged: StaleEntries = %d, want 0", got)
	}

	// Update stamped exactly at the consistency point: unorderable from
	// outside (the op may have executed after the covering report within
	// the same clock grain), so the sweep must not convict on the tie.
	truth.set(1, 2, des.Time(10*des.Second))
	if got, _ := c.StaleEntries(truth); got != 0 {
		t.Fatalf("tie at the consistency point flagged: StaleEntries = %d, want 0", got)
	}

	// Truth in flux (des.Never): suppressed until it settles.
	truth.set(1, 99, des.Never)
	if got, _ := c.StaleEntries(truth); got != 0 {
		t.Fatalf("in-flux truth flagged: StaleEntries = %d, want 0", got)
	}

	// Truth lagging the wire (entry version ahead): never a violation.
	truth.set(1, 0, 0)
	if got, _ := c.StaleEntries(truth); got != 0 {
		t.Fatalf("lagging truth flagged: StaleEntries = %d, want 0", got)
	}
}

func TestProcessWireInvalidatesAndAdvances(t *testing.T) {
	truth := newTableTruth(16)
	c := newClient()
	c.Cache.Put(2, 1, des.Time(des.Second))
	c.Cache.Put(7, 1, des.Time(des.Second))

	r := &ir.Report{
		Kind:        ir.KindFull,
		At:          des.Time(4 * des.Second),
		PrevAt:      des.Time(2 * des.Second),
		WindowStart: 0,
		Items:       []db.Update{{ID: 2, At: des.Time(3 * des.Second)}},
	}
	applied, err := c.ProcessWire(r.Marshal(), truth)
	if err != nil || !applied {
		t.Fatalf("ProcessWire: applied=%v err=%v", applied, err)
	}
	if c.Cache.Contains(2) {
		t.Fatal("listed item must be invalidated")
	}
	if !c.Cache.Contains(7) {
		t.Fatal("unlisted item must survive")
	}
	if c.State.LastConsistent != r.At {
		t.Fatalf("LastConsistent %v, want %v", c.State.LastConsistent, r.At)
	}

	if _, err := c.ProcessWire([]byte{1, 2, 3}, truth); err == nil {
		t.Fatal("truncated wire form must error")
	}
}
