// Package ir implements the paper's subject matter: cache invalidation
// report algorithms for wireless data broadcast.
//
// Baselines (canonical, as published):
//
//   - TS  — Broadcasting Timestamps (Barbara & Imielinski 1994): periodic
//     reports listing items updated in a fixed window w = K·L.
//   - AT  — Amnesic Terminals (same paper): reports list only updates since
//     the previous report; one missed report forces a full cache drop.
//   - SIG — signature scheme: fixed-size compressed signatures that survive
//     arbitrary disconnection at the cost of false-positive invalidations.
//   - UIR — Updated Invalidation Reports (Cao 2000): small replicated
//     sub-reports between full reports cut the wait-for-report latency.
//
// Reconstructed contributions (see DESIGN.md for the mismatch note):
//
//   - TAIR — traffic-aware reports: the report interval adapts to downlink
//     load and small invalidation digests piggyback on ongoing downlink
//     traffic.
//   - LAIR — link-adaptation-aware reports: report rate (MCS) is chosen
//     from the live client SNR distribution with periodic robust anchors.
//   - HYBRID — both of the above.
//
// The split of responsibilities keeps every scheme's difference server-side:
// reports carry an explicit coverage window (WindowStart), and a single
// generic client rule (ClientState.Process) handles every scheme except the
// signature comparison.
package ir

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/db"
	"repro/internal/des"
)

// Kind classifies a report.
type Kind uint8

// Report kinds. Full reports allow a client with a broken coverage chain to
// recover by dropping its cache; minis and piggybacks are usable only by
// clients already inside the coverage window.
const (
	KindFull Kind = iota
	KindMini
	KindPiggyback
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFull:
		return "full"
	case KindMini:
		return "mini"
	case KindPiggyback:
		return "piggyback"
	default:
		return "unknown"
	}
}

// Wire-format sizing in bits. Ids and timestamps are 32-bit on the air (a
// µs-resolution timestamp is sent modulo the coverage horizon, which a
// 32-bit offset from the report time covers comfortably).
const (
	HeaderBits   = 14 * 8 // kind + seq + three timestamps + count
	PerItemBits  = 8 * 8  // 32-bit id + 32-bit update-time offset
	SigBlockBits = 16 * 8 // as-of + capacity + fp + size descriptor
)

// SigBlock describes the signature payload of a SIG report. The simulation
// models the signature comparison behaviourally (perfect change detection up
// to Capacity differing items, false positives at rate FalsePositive)
// instead of bit-level hashing; DESIGN.md documents the substitution.
type SigBlock struct {
	AsOf          des.Time // server state time the signatures describe
	Capacity      int      // max differing items identifiable before drop-all
	FalsePositive float64  // per-unchanged-item invalidation probability
	Bits          int      // wire size of the signature body
}

// Report is one invalidation broadcast.
type Report struct {
	Kind Kind
	Seq  uint64

	At     des.Time // generation (server state) time
	PrevAt des.Time // At of the previous report in this server's sequence

	// WindowStart is the coverage guarantee: every item updated in
	// (WindowStart, At] appears in Items (with its latest update time). A
	// client whose cache is consistent as of some t ≥ WindowStart becomes
	// consistent as of At by applying Items.
	WindowStart des.Time

	Items []db.Update

	// Sig is set only by the signature scheme; Items is then empty.
	Sig *SigBlock
}

// SizeBits reports the on-air payload size of the report.
func (r *Report) SizeBits() int {
	bits := HeaderBits + len(r.Items)*PerItemBits
	if r.Sig != nil {
		bits += SigBlockBits + r.Sig.Bits
	}
	return bits
}

// Validate reports the first structural problem with the report.
func (r *Report) Validate() error {
	switch {
	case r.Kind > KindPiggyback:
		return fmt.Errorf("ir: bad kind %d", r.Kind)
	case r.WindowStart > r.At:
		return fmt.Errorf("ir: window start %v after report time %v", r.WindowStart, r.At)
	case r.PrevAt > r.At:
		return fmt.Errorf("ir: prev %v after report time %v", r.PrevAt, r.At)
	case r.Sig != nil && len(r.Items) > 0:
		return fmt.Errorf("ir: signature report with explicit items")
	case r.Sig != nil && (r.Sig.Capacity <= 0 || r.Sig.Bits <= 0 ||
		r.Sig.FalsePositive < 0 || r.Sig.FalsePositive >= 1):
		return fmt.Errorf("ir: malformed sig block %+v", *r.Sig)
	}
	for _, u := range r.Items {
		if u.At > r.At || u.At <= r.WindowStart {
			return fmt.Errorf("ir: item %d update time %v outside window (%v, %v]",
				u.ID, u.At, r.WindowStart, r.At)
		}
	}
	return nil
}

// Marshal encodes the report into its wire form. The byte-level encoding
// backs the round-trip property tests and the trace tool; the simulator
// itself passes Report pointers and only accounts SizeBits of airtime.
func (r *Report) Marshal() []byte {
	return r.AppendMarshal(make([]byte, 0, 38+12*len(r.Items)))
}

// AppendMarshal appends the report's wire form to dst and returns the
// extended slice: the allocation-free form of Marshal for a caller that
// encodes into a buffer it reuses.
func (r *Report) AppendMarshal(dst []byte) []byte {
	dst = appendItems(appendHead(dst, r.Kind, r.Seq, r.At, r.PrevAt, r.WindowStart, len(r.Items)), r.Items)
	if r.Sig != nil {
		dst = append(dst, 1)
		dst = binary.BigEndian.AppendUint64(dst, uint64(r.Sig.AsOf))
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.Sig.Capacity))
		dst = binary.BigEndian.AppendUint64(dst, uint64(fp64bits(r.Sig.FalsePositive)))
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.Sig.Bits))
	} else {
		dst = append(dst, 0)
	}
	return dst
}

// appendHead appends a report's 37-byte header: kind, sequence number, the
// three timestamps and the item count.
func appendHead(dst []byte, k Kind, seq uint64, at, prev, start des.Time, items int) []byte {
	dst = append(dst, byte(k))
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(at))
	dst = binary.BigEndian.AppendUint64(dst, uint64(prev))
	dst = binary.BigEndian.AppendUint64(dst, uint64(start))
	return binary.BigEndian.AppendUint32(dst, uint32(items))
}

// appendItems appends the items' wire forms, 12 bytes each: the id, then
// the update time.
func appendItems(dst []byte, items []db.Update) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 12*len(items))[:n+12*len(items)]
	b := dst[n:]
	for _, u := range items {
		binary.BigEndian.PutUint32(b, uint32(u.ID))
		binary.BigEndian.PutUint64(b[4:12], uint64(u.At))
		b = b[12:]
	}
	return dst
}

// Unmarshal decodes a report from its wire form.
func Unmarshal(data []byte) (*Report, error) {
	r := &Report{}
	if err := UnmarshalInto(r, data); err != nil {
		return nil, err
	}
	return r, nil
}

// UnmarshalInto decodes a report from its wire form into r, reusing r's
// Items backing array (when its capacity suffices) and its SigBlock. It is
// the server hot-path decoder: a caller that keeps one Report per connection
// or per arena slot decodes a steady stream without allocating. On error r's
// contents are unspecified but r remains safe to reuse. Every field of r is
// overwritten, so a recycled Report needs no clearing beforehand.
func UnmarshalInto(r *Report, data []byte) error {
	if len(data) < 38 {
		return fmt.Errorf("ir: truncated report (%d bytes)", len(data))
	}
	r.Kind = Kind(data[0])
	r.Seq = binary.BigEndian.Uint64(data[1:])
	r.At = des.Time(binary.BigEndian.Uint64(data[9:]))
	r.PrevAt = des.Time(binary.BigEndian.Uint64(data[17:]))
	r.WindowStart = des.Time(binary.BigEndian.Uint64(data[25:]))
	n := int(binary.BigEndian.Uint32(data[33:]))
	off := 37
	if len(data) < off+12*n+1 {
		return fmt.Errorf("ir: truncated items (%d of %d)", len(data)-off, 12*n)
	}
	if n > 0 {
		if cap(r.Items) >= n {
			r.Items = r.Items[:n]
		} else {
			r.Items = make([]db.Update, n)
		}
		for i := 0; i < n; i++ {
			r.Items[i].ID = int(binary.BigEndian.Uint32(data[off:]))
			r.Items[i].At = des.Time(binary.BigEndian.Uint64(data[off+4:]))
			off += 12
		}
	} else {
		// Canonical form: an empty report carries nil-equivalent Items; the
		// backing array (if any) is kept for the next decode.
		r.Items = r.Items[:0:cap(r.Items)]
		if cap(r.Items) == 0 {
			r.Items = nil
		}
	}
	switch data[off] {
	case 0:
		off++
		r.Sig = nil
	case 1:
		off++
		if len(data) < off+24 {
			return fmt.Errorf("ir: truncated sig block")
		}
		if r.Sig == nil {
			r.Sig = &SigBlock{}
		}
		*r.Sig = SigBlock{
			AsOf:          des.Time(binary.BigEndian.Uint64(data[off:])),
			Capacity:      int(binary.BigEndian.Uint32(data[off+8:])),
			FalsePositive: bitsToFP64(binary.BigEndian.Uint64(data[off+12:])),
			Bits:          int(binary.BigEndian.Uint32(data[off+20:])),
		}
		off += 24
	default:
		return fmt.Errorf("ir: bad sig marker %d", data[off])
	}
	if off != len(data) {
		return fmt.Errorf("ir: %d trailing bytes", len(data)-off)
	}
	return nil
}
