package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/serve"
	"repro/internal/serve/capabilities"
)

// The correctness checks. Each is a small function or type so the unit tests
// can feed it violating inputs; the workloads call them on every operation
// and turn any error into a failed run.

// fingerprintExcluded are the RunStats fields that describe the host run,
// not the simulation: they differ between two runs of the same replication.
var fingerprintExcluded = []string{"WallSec", "EventsPerSec", "HeapAllocBytes", "ParallelWorkers"}

// Fingerprint hashes every scalar statistic of one replication except the
// host-run fields, so two runs of the same replication — timed and traced,
// parent and change, one lane worker or many — can be compared for identical
// simulated output.
func Fingerprint(r *core.RunStats) (string, error) {
	raw, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		return "", err
	}
	for _, k := range fingerprintExcluded {
		delete(fields, k)
	}
	canon, err := json.Marshal(fields) // map keys marshal in sorted order
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:8]), nil
}

// CombineFingerprints folds an ordered list of fingerprints into one.
func CombineFingerprints(fps []string) string {
	h := sha256.New()
	for _, fp := range fps {
		h.Write([]byte(fp))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// CheckStale fails a replication that served a stale answer: the paper's
// correctness invariant.
func CheckStale(r RepResult) error {
	if r.Stale != 0 {
		return fmt.Errorf("%s seed %d: %d stale answers", r.Algo, r.Seed, r.Stale)
	}
	return nil
}

// CheckSameReplication fails when two runs of one replication disagree on
// their simulated output: events executed, epochs, or fingerprint. It pins
// both timed-versus-traced agreement and lane worker-count invariance.
func CheckSameReplication(what string, a, b RepResult) error {
	switch {
	case a.Events != b.Events:
		return fmt.Errorf("%s: events %d vs %d", what, a.Events, b.Events)
	case a.Epochs != b.Epochs:
		return fmt.Errorf("%s: epochs %d vs %d", what, a.Epochs, b.Epochs)
	case a.Fingerprint != b.Fingerprint:
		return fmt.Errorf("%s: fingerprint %s vs %s", what, a.Fingerprint, b.Fingerprint)
	}
	return nil
}

// CheckEcho fails an answer that is not for the item queried.
func CheckEcho(sent int, ans capabilities.Answer) error {
	if ans.Item != sent {
		return fmt.Errorf("answer for item %d to a query for item %d", ans.Item, sent)
	}
	return nil
}

// VersionCheck enforces, per query connection, that an item's answered
// version never decreases (the connection's answers are served in order), and
// read-your-write: a query sent after /v1/update returned version v must be
// answered with a version of at least v.
type VersionCheck struct {
	last map[int]uint64
}

// NewVersionCheck returns an empty checker for one connection.
func NewVersionCheck() *VersionCheck { return &VersionCheck{last: map[int]uint64{}} }

// Observe checks one answer; floor is the highest version an update
// acknowledged before the query was sent.
func (c *VersionCheck) Observe(ans capabilities.Answer, floor uint64) error {
	if prev, ok := c.last[ans.Item]; ok && ans.Version < prev {
		return fmt.Errorf("item %d: version went back from %d to %d", ans.Item, prev, ans.Version)
	}
	if ans.Version < floor {
		return fmt.Errorf("item %d: answered version %d after an update returned %d", ans.Item, ans.Version, floor)
	}
	c.last[ans.Item] = ans.Version
	return nil
}

// CheckDatagram decodes one broadcast datagram and validates the report.
func CheckDatagram(data []byte, into *ir.Report) error {
	if _, err := serve.DecodeDatagram(data, into); err != nil {
		return fmt.Errorf("datagram: %w", err)
	}
	if err := into.Validate(); err != nil {
		return fmt.Errorf("datagram: %w", err)
	}
	return nil
}

// CheckReport decodes one unicast report frame (a catch-up answer or a
// piggybacked digest) and validates it.
func CheckReport(payload []byte, into *ir.Report) error {
	if err := ir.UnmarshalInto(into, payload); err != nil {
		return fmt.Errorf("report frame: %w", err)
	}
	if err := into.Validate(); err != nil {
		return fmt.Errorf("report frame: %w", err)
	}
	return nil
}

// CheckBroadcasts fails a served run whose broadcast plane fell silent: at
// least 90% of the reports one per interval would give over the run.
func CheckBroadcasts(broadcasts uint64, runSec, intervalSec float64) error {
	want := 0.9 * runSec / intervalSec
	if float64(broadcasts) < want {
		return fmt.Errorf("%d broadcasts in %.1f s, want at least %.0f (one per %.1f s)",
			broadcasts, runSec, want, intervalSec)
	}
	return nil
}
