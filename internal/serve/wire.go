package serve

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/des"
	"repro/internal/ir"
	"repro/internal/serve/capabilities"
)

// The uplink query plane is length-prefixed frames over TCP:
//
//	u32be length | u8 op | payload        (length = 1 + len(payload))
//
// Client → server ops carry an item query or a catch-up request; server →
// client ops carry the answer, a unicast report, or an error string. The
// framing is deliberately dumb — io.ReadFull semantics make it immune to
// arbitrary stream segmentation (1-byte reads, split writes), which the
// adversarial wire tests drive explicitly.
const (
	OpQuery   byte = 0x01 // u32 item
	OpCatchup byte = 0x02 // u64 since (µs)

	OpAnswer byte = 0x81 // u32 item | u64 version | u32 bits | u64 asOf
	OpReport byte = 0x82 // marshaled ir.Report
	OpError  byte = 0xFF // utf-8 message
)

// MaxFramePayload bounds a frame's declared payload size. A report for a
// full database of 10^6 items is ~12 MB; anything beyond that is a corrupt
// or hostile length prefix and the connection is cut rather than the server
// allocating attacker-chosen amounts.
const MaxFramePayload = 16 << 20

// WriteFrame writes one frame. The payload may be nil.
func WriteFrame(w io.Writer, op byte, payload []byte) error {
	_, err := w.Write(append(appendHeader(make([]byte, 0, 5+len(payload)), op, len(payload)), payload...))
	return err
}

// appendHeader appends the length prefix and op byte of a frame whose
// payload is n bytes.
func appendHeader(dst []byte, op byte, n int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+n))
	return append(dst, op)
}

// appendReportFrame appends a whole OpReport frame carrying r's wire form.
func appendReportFrame(dst []byte, r *ir.Report) []byte {
	start := len(dst)
	return patchFrameLen(r.AppendMarshal(appendHeader(dst, OpReport, 0)), start)
}

// patchFrameLen sets the length prefix of the frame that starts at
// dst[start] and ends dst, once its payload is appended.
func patchFrameLen(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// appendErrorFrame appends a whole OpError frame carrying err's message.
func appendErrorFrame(dst []byte, err error) []byte {
	msg := err.Error()
	return append(appendHeader(dst, OpError, len(msg)), msg...)
}

// frameLen parses a frame's length prefix: the op byte plus the payload. A
// zero length (no op byte) or one past MaxFramePayload is a framing error.
func frameLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return 0, fmt.Errorf("serve: zero-length frame")
	}
	if n > MaxFramePayload+1 {
		return 0, fmt.Errorf("serve: frame length %d exceeds limit %d", n, MaxFramePayload+1)
	}
	return int(n), nil
}

// FrameReader decodes frames from a stream, reusing one payload buffer; the
// returned payload is valid until the next Read.
type FrameReader struct {
	r   io.Reader
	buf []byte
}

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Read returns the next frame. io.EOF is returned only on a clean frame
// boundary; a stream cut mid-frame is io.ErrUnexpectedEOF.
func (fr *FrameReader) Read() (op byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n, err := frameLen(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return fr.buf[0], fr.buf[1:], nil
}

// EncodeQuery builds an OpQuery payload.
func EncodeQuery(item int) []byte {
	return binary.BigEndian.AppendUint32(nil, uint32(item))
}

// DecodeQuery parses an OpQuery payload.
func DecodeQuery(payload []byte) (item int, err error) {
	if len(payload) != 4 {
		return 0, fmt.Errorf("serve: query payload %d bytes, want 4", len(payload))
	}
	return int(binary.BigEndian.Uint32(payload)), nil
}

// EncodeCatchup builds an OpCatchup payload.
func EncodeCatchup(since des.Time) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(since))
}

// DecodeCatchup parses an OpCatchup payload.
func DecodeCatchup(payload []byte) (since des.Time, err error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("serve: catchup payload %d bytes, want 8", len(payload))
	}
	return des.Time(binary.BigEndian.Uint64(payload)), nil
}

// EncodeAnswer builds an OpAnswer payload.
func EncodeAnswer(a capabilities.Answer) []byte {
	return appendAnswer(make([]byte, 0, 24), a)
}

func appendAnswer(dst []byte, a capabilities.Answer) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.Item))
	dst = binary.BigEndian.AppendUint64(dst, a.Version)
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.Bits))
	return binary.BigEndian.AppendUint64(dst, uint64(a.AsOf))
}

// DecodeAnswer parses an OpAnswer payload.
func DecodeAnswer(payload []byte) (capabilities.Answer, error) {
	if len(payload) != 24 {
		return capabilities.Answer{}, fmt.Errorf("serve: answer payload %d bytes, want 24", len(payload))
	}
	return capabilities.Answer{
		Item:    int(binary.BigEndian.Uint32(payload)),
		Version: binary.BigEndian.Uint64(payload[4:]),
		Bits:    int(binary.BigEndian.Uint32(payload[12:])),
		AsOf:    des.Time(binary.BigEndian.Uint64(payload[16:])),
	}, nil
}

// EncodeAnswerFrame builds the full OpAnswer frame payload: the answer plus
// a trailing flag telling the peer whether a piggybacked digest frame
// (OpReport) follows on the stream — the served analogue of a digest riding
// a response frame's robust control portion.
func EncodeAnswerFrame(a capabilities.Answer, digestFollows bool) []byte {
	return appendAnswerPayload(make([]byte, 0, 25), a, digestFollows)
}

func appendAnswerPayload(dst []byte, a capabilities.Answer, digestFollows bool) []byte {
	dst = appendAnswer(dst, a)
	if digestFollows {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodeAnswerFrame parses an OpAnswer frame payload.
func DecodeAnswerFrame(payload []byte) (a capabilities.Answer, digestFollows bool, err error) {
	if len(payload) != 25 {
		return a, false, fmt.Errorf("serve: answer frame %d bytes, want 25", len(payload))
	}
	switch payload[24] {
	case 0:
	case 1:
		digestFollows = true
	default:
		return a, false, fmt.Errorf("serve: bad digest flag %d", payload[24])
	}
	a, err = DecodeAnswer(payload[:24])
	return a, digestFollows, err
}

// EncodeDatagram builds one broadcast datagram: u8 mcs | marshaled report.
// The report body is the exact ir wire form, so the conformance oracle can
// compare served streams byte-for-byte against in-process ones.
func EncodeDatagram(mcs int, r *ir.Report) []byte {
	return r.AppendMarshal(append(make([]byte, 0, 39+12*len(r.Items)), byte(mcs)))
}

// DecodeDatagram parses a broadcast datagram into r (see ir.UnmarshalInto
// for the reuse contract). A truncated datagram — the UDP analogue of a
// frame that lost its tail in flight — fails loudly instead of yielding a
// short report.
func DecodeDatagram(data []byte, r *ir.Report) (mcs int, err error) {
	if len(data) < 1 {
		return 0, fmt.Errorf("serve: empty datagram")
	}
	if err := ir.UnmarshalInto(r, data[1:]); err != nil {
		return 0, err
	}
	return int(data[0]), nil
}
