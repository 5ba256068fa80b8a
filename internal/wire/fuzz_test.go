package wire

import (
	"bytes"
	"errors"
	"testing"
)

// codec is the encode/decode pair every wire message implements.
type codec interface {
	AppendTo([]byte) []byte
	Decode([]byte) error
}

// FuzzDecode feeds arbitrary bytes to every decoder: none may panic, and any
// input a decoder accepts must re-encode to an equivalent message. Run with
// `go test -fuzz=FuzzDecode ./internal/wire/` for continuous fuzzing; the
// seed corpus alone runs as a regular test.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x57, 0x54, 1, 1})
	f.Add((&Ping{Seq: 1, SentNS: 2}).AppendTo(nil))
	f.Add((&Pong{Seq: 3, EchoNS: 4}).AppendTo(nil))
	// A version-1 frame of a retired type (3): magic, version, type, body.
	f.Add([]byte{0x57, 0x54, 1, 3, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 6})
	f.Add((&HelloAck{Version: 2, Caps: 1, Nonce: 7}).AppendTo(nil))
	f.Add((&SetupAck{SessionID: 8, Caps: 3, ReportIntervalMS: 100}).AppendTo(nil))
	f.Add((&SetupReject{SessionID: 9, Code: RejectAuth}).AppendTo(nil))
	f.Add((&DataOpen{SessionID: 10, Nonce: 11}).AppendTo(nil))
	f.Add((&DataOpenAck{SessionID: 12}).AppendTo(nil))
	f.Add((&Hello{MinVersion: 2, MaxVersion: 2, Caps: 3, Nonce: 18}).AppendTo(nil))
	f.Add((&Setup{SessionID: 19, RateKbps: 20, Token: MintToken(1, 2, 3, 4)}).AppendTo(nil))
	f.Add((&Rate2{SessionID: 21, RateKbps: 22, Seq: 23}).AppendTo(nil))
	f.Add((&Report{SessionID: 24, Seq: 25, SentBytes: 26, SentDatagrams: 27}).AppendTo(nil))
	f.Add((&Data2{SessionID: 28, Seq: 29, SentNS: 30, Payload: []byte{4, 5}}).AppendTo(nil))
	f.Add((&Bye{SessionID: 31, ResultKbps: 32, DurationMS: 33, Regime: 2}).AppendTo(nil))

	f.Fuzz(func(t *testing.T, b []byte) {
		// PeekVersion must never panic and must reject anything shorter
		// than the header.
		ver, typ, err := PeekVersion(b)
		if err != nil {
			if len(b) >= HeaderLen && errors.Is(err, ErrTruncated) {
				t.Fatalf("ErrTruncated on %d-byte input", len(b))
			}
			return
		}
		_ = ver
		_ = typ.String()

		// Every decoder that accepts b must be idempotent: the message it
		// decoded re-encodes to bytes that decode and encode again unchanged.
		for _, fresh := range []func() codec{
			func() codec { return new(Ping) },
			func() codec { return new(Pong) },
			func() codec { return new(Hello) },
			func() codec { return new(HelloAck) },
			func() codec { return new(Setup) },
			func() codec { return new(SetupAck) },
			func() codec { return new(SetupReject) },
			func() codec { return new(DataOpen) },
			func() codec { return new(DataOpenAck) },
			func() codec { return new(Rate2) },
			func() codec { return new(Report) },
			func() codec { return new(Data2) },
			func() codec { return new(Bye) },
			func() codec { return new(ByeAck) },
		} {
			m := fresh()
			if m.Decode(b) != nil {
				continue
			}
			first := m.AppendTo(nil)
			again := fresh()
			if err := again.Decode(first); err != nil {
				t.Fatalf("%T: decoding own encoding: %v", m, err)
			}
			if second := again.AppendTo(nil); !bytes.Equal(first, second) {
				t.Fatalf("%T decode/encode not idempotent:\n first=%x\nsecond=%x", m, first, second)
			}
		}
	})
}

// FuzzRoundTrip drives every message type from structured field values:
// encode → decode → encode must be byte-identical in both directions, so a
// lossy field (truncated width, swapped endianness, forgotten payload
// length) cannot hide behind a tolerant decoder. Together with FuzzDecode
// (arbitrary bytes in) the CI fuzz steps exercise both halves of the codec.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint32(2), uint64(3), uint32(4), uint32(5), []byte("pad"))
	f.Add(uint64(0), uint32(0), uint64(0), uint32(0), uint32(0), []byte{})
	f.Add(^uint64(0), ^uint32(0), ^uint64(0), ^uint32(0), ^uint32(0), bytes.Repeat([]byte{0xA5}, 1183))

	f.Fuzz(func(t *testing.T, id uint64, seq uint32, ns uint64, kbps uint32, dur uint32, payload []byte) {
		msgs := []struct {
			name  string
			msg   codec
			fresh func() codec
		}{
			{"Ping", &Ping{Seq: seq, SentNS: ns}, func() codec { return new(Ping) }},
			{"Pong", &Pong{Seq: seq, EchoNS: ns}, func() codec { return new(Pong) }},
			{"Hello", &Hello{MinVersion: uint8(seq), MaxVersion: uint8(dur), Caps: kbps, Nonce: ns}, func() codec { return new(Hello) }},
			{"HelloAck", &HelloAck{Version: uint8(seq), Caps: kbps, Nonce: ns}, func() codec { return new(HelloAck) }},
			{"Setup", &Setup{SessionID: id, RateKbps: kbps, Token: MintToken(ns, seq, id, uint64(dur))}, func() codec { return new(Setup) }},
			{"SetupAck", &SetupAck{SessionID: id, Caps: kbps, ReportIntervalMS: dur}, func() codec { return new(SetupAck) }},
			{"SetupReject", &SetupReject{SessionID: id, Code: uint8(seq)}, func() codec { return new(SetupReject) }},
			{"DataOpen", &DataOpen{SessionID: id, Nonce: ns}, func() codec { return new(DataOpen) }},
			{"DataOpenAck", &DataOpenAck{SessionID: id}, func() codec { return new(DataOpenAck) }},
			{"Rate2", &Rate2{SessionID: id, RateKbps: kbps, Seq: seq}, func() codec { return new(Rate2) }},
			{"Report", &Report{SessionID: id, Seq: seq, SentBytes: ns, SentDatagrams: kbps}, func() codec { return new(Report) }},
			{"Data2", &Data2{SessionID: id, Seq: seq, SentNS: ns, Payload: payload}, func() codec { return new(Data2) }},
			{"Bye", &Bye{SessionID: id, ResultKbps: kbps, DurationMS: dur, CrossingKbps: seq, TrimmedKbps: kbps, PeakKbps: dur, P90P80Kbps: seq, Regime: uint8(dur)}, func() codec { return new(Bye) }},
			{"ByeAck", &ByeAck{SessionID: id}, func() codec { return new(ByeAck) }},
		}
		for _, m := range msgs {
			first := m.msg.AppendTo(nil)
			decoded := m.fresh()
			if err := decoded.Decode(first); err != nil {
				t.Fatalf("%s: decoding own encoding: %v", m.name, err)
			}
			second := decoded.AppendTo(nil)
			if !bytes.Equal(first, second) {
				t.Fatalf("%s: round trip not byte-identical:\n first=%x\nsecond=%x", m.name, first, second)
			}
			// Appending to a dirty, non-empty buffer must not change the
			// encoded suffix.
			prefix := []byte{0xDE, 0xAD}
			appended := decoded.AppendTo(append([]byte(nil), prefix...))
			if !bytes.Equal(appended[:len(prefix)], prefix) || !bytes.Equal(appended[len(prefix):], first) {
				t.Fatalf("%s: AppendTo clobbered the destination prefix", m.name)
			}
		}
	})
}
