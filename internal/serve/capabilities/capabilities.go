// Package capabilities holds the served engine's vocabulary shared with its
// clients: the Answer to an item query, and the Set of operations a server
// offers, which wdcserved publishes on /v1/capabilities and /v1/status.
//
// The paper's server protocol decomposes into four operations: broadcasting
// scheduled invalidation reports, attaching digests to ongoing downlink
// traffic, answering uplink item queries, and serving catch-up history to
// reconnecting clients. A served runtime also ingests externally originated
// database updates. Every scheme offers all of them except piggybacking,
// which only the traffic-aware schemes (tair, hybrid) do.
package capabilities

import "repro/internal/des"

// Answer is the authoritative reply to one item query: the item's current
// version and payload size, stamped with the server read time AsOf — the
// value's consistency timestamp, which the client caches alongside the
// entry.
type Answer struct {
	Item    int      `json:"item"`
	Version uint64   `json:"version"`
	Bits    int      `json:"bits"`
	AsOf    des.Time `json:"as_of_us"`
}

// Set records which operations a server offers.
type Set struct {
	Report    bool `json:"report"`
	Piggyback bool `json:"piggyback"`
	Query     bool `json:"query"`
	Ingest    bool `json:"ingest"`
	Catchup   bool `json:"catchup"`
}

// Names lists the offered operations in canonical order.
func (s Set) Names() []string {
	var names []string
	for _, c := range []struct {
		on   bool
		name string
	}{
		{s.Report, "report"},
		{s.Piggyback, "piggyback"},
		{s.Query, "query"},
		{s.Ingest, "ingest"},
		{s.Catchup, "catchup"},
	} {
		if c.on {
			names = append(names, c.name)
		}
	}
	return names
}
