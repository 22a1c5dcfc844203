package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"

	"repro/internal/des"
	"repro/internal/ir"
)

// FuzzFrameRead drives the TCP frame reader with arbitrary stream bytes: the
// codec must never panic, never allocate from a hostile length prefix beyond
// MaxFramePayload, and classify every outcome — clean EOF exactly at a frame
// boundary, ErrUnexpectedEOF mid-frame, a hard error on zero-length or
// oversized claims. Whatever decodes must round-trip through WriteFrame back
// to the same bytes.
//
// Every decoded frame then goes through the TCP plane's dispatch,
// serveFrame, on one virtual-clock server per fuzz process whose clock is
// past its 10-minute update retention, so decoded values (item ids, catch-up
// points) meet a live engine. Responses leave over a net.Pipe whose far end
// is drained. A dispatch error ends the input's frames there, as it ends a
// connection. After every input the server must still answer a query.
func FuzzFrameRead(f *testing.F) {
	// Well-formed single frames.
	frame := func(op byte, payload []byte) []byte {
		var b bytes.Buffer
		if err := WriteFrame(&b, op, payload); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	f.Add(frame(OpQuery, EncodeQuery(7)))
	f.Add(frame(OpCatchup, EncodeCatchup(123456)))
	f.Add(frame(OpAnswer, make([]byte, 25)))
	f.Add(frame(OpError, []byte("boom")))
	f.Add(append(frame(OpQuery, EncodeQuery(1)), frame(OpCatchup, EncodeCatchup(2))...))
	// Unknown op byte: the reader passes it through; dispatch rejects it.
	f.Add(frame(0x7E, []byte{1, 2, 3}))
	// Truncated length prefix and truncated payload.
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x05, 0x01, 0xAA})
	// Zero-length claim (no op byte) and an oversized MaxFramePayload claim.
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	f.Add(binary.BigEndian.AppendUint32(nil, uint32(MaxFramePayload+2)))
	f.Add(binary.BigEndian.AppendUint32(nil, 0xFFFFFFFF))

	const clock = des.Time(11 * des.Minute)
	srv, err := NewServer(Options{Runtime: DefaultRuntimeConfig()})
	if err != nil {
		f.Fatal(err)
	}
	conn, far := net.Pipe()
	go func() { _, _ = io.Copy(io.Discard, far) }()
	f.Cleanup(func() {
		_ = conn.Close()
		srv.Shutdown()
	})
	if _, err := srv.AdvanceTo(clock); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		off := 0 // bytes consumed by fully-read frames
		open := true
		for {
			op, payload, err := fr.Read()
			if err != nil {
				// Clean EOF is only legal exactly at a frame boundary; a
				// stream cut anywhere else must surface as ErrUnexpectedEOF
				// or a hard framing error.
				if err == io.EOF && off != len(data) {
					t.Fatalf("clean EOF with %d bytes consumed of %d", off, len(data))
				}
				break
			}
			if len(payload)+1 > MaxFramePayload+1 {
				t.Fatalf("frame of %d payload bytes exceeds MaxFramePayload", len(payload))
			}
			// Round-trip: re-encoding the decoded frame must reproduce the
			// wire bytes just consumed.
			var rt bytes.Buffer
			if err := WriteFrame(&rt, op, payload); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			end := off + rt.Len()
			if end > len(data) || !bytes.Equal(rt.Bytes(), data[off:end]) {
				t.Fatalf("frame at offset %d does not round-trip", off)
			}
			off = end
			if open {
				open = srv.serveFrame(conn, op, payload) == nil
			}
		}
		ans, _, err := srv.Query(5)
		if err != nil || ans.Item != 5 || ans.AsOf != clock {
			t.Fatalf("query after the input answered %+v, %v", ans, err)
		}
	})
}

// FuzzDecodeDatagram drives the UDP datagram decoder: arbitrary bytes must
// either decode into a report or fail loudly — never panic, and never
// "succeed" on a truncated body (the codec's own tests pin that for real
// reports; here the input is arbitrary).
func FuzzDecodeDatagram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x03})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		var r ir.Report
		_, _ = DecodeDatagram(data, &r)
	})
}
