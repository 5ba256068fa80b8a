// Package wire defines Swiftest's UDP probing protocol (§5.1: "we alter the
// transmission protocol from TCP to UDP … implement the customized bandwidth
// probing mechanism from scratch at the application layer").
//
// The protocol is a compact binary format with fixed-size headers, designed
// for allocation-free encode/decode in the packet hot path: messages encode
// into caller-provided buffers and decode into preallocated structs, in the
// style of gopacket's DecodingLayer.
//
// Message flow for one bandwidth test. The client opens two sockets per
// server: a control channel for the handshake, rate updates, server Reports
// and the final Bye, and a data channel that carries nothing but paced probe
// datagrams, so a probe flood never queues a rate update behind buffered
// data. Sessions are keyed by session ID rather than by the peer 4-tuple;
// the server learns the data-channel address from the DataOpen.
//
//	client                               server
//	  | ---- Ping(seq) ---------------------> |      (server selection)
//	  | <--- Pong(seq, echo) ---------------- |
//	  | == control channel ==================== |
//	  | ---- Hello(vmin,vmax,caps) -----------> |      (negotiation)
//	  | <--- HelloAck(ver,caps) --------------- |
//	  | ---- Setup(sid, token, rate) ---------> |      (lease-auth admission)
//	  | <--- SetupAck(sid) / SetupReject(sid) - |
//	  | == data channel ======================= |
//	  | ---- DataOpen(sid) -------------------> |      (binds the 4-tuple)
//	  | <--- DataOpenAck(sid) ----------------- |
//	  | <--- Data2(sid, seq, ts, pad) --------- |      (paced at the probing rate)
//	  | == control channel ==================== |
//	  | ---- Rate2(sid, rate) ----------------> |      (rate escalation)
//	  | <--- Report(sid, sent bytes/dgrams) --- |      (per-interval reports)
//	  | ---- Bye(sid, result, estimates) -----> |
//	  | <--- ByeAck(sid) ---------------------- |
//
// Ping and Pong carry version byte 1, every other frame version byte 2.
// Rates travel as Kbps in uint32, giving 4 Tbps of headroom with 1 Kbps
// resolution. Timestamps are nanoseconds since the Unix epoch in uint64.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic identifies Swiftest datagrams; Version is the version byte of the
// pre-handshake Ping and Pong.
const (
	Magic   uint16 = 0x5754 // "WT"
	Version uint8  = 1
)

// Type enumerates protocol messages.
type Type uint8

// Pre-handshake message types. Types 3–8 belonged to a retired
// single-socket protocol generation and are never reused.
const (
	TypePing Type = 1
	TypePong Type = 2
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypePing:
		return "ping"
	case TypePong:
		return "pong"
	case TypeHello:
		return "hello"
	case TypeHelloAck:
		return "hello-ack"
	case TypeSetup:
		return "setup"
	case TypeSetupAck:
		return "setup-ack"
	case TypeSetupReject:
		return "setup-reject"
	case TypeDataOpen:
		return "data-open"
	case TypeDataOpenAck:
		return "data-open-ack"
	case TypeRate2:
		return "rate2"
	case TypeReport:
		return "report"
	case TypeData2:
		return "data2"
	case TypeBye:
		return "bye"
	case TypeByeAck:
		return "bye-ack"
	}
	return fmt.Sprintf("unknown(%d)", uint8(t))
}

// HeaderLen is the fixed prefix of every message: magic(2) version(1)
// type(1).
const HeaderLen = 4

// Errors returned by Decode functions.
var (
	ErrTruncated  = errors.New("wire: message truncated")
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadType    = errors.New("wire: unexpected message type")
)

func putHeader(b []byte, t Type) {
	binary.BigEndian.PutUint16(b[0:2], Magic)
	b[2] = Version
	b[3] = uint8(t)
}

// PeekType validates the common header of b and returns its message type.
func PeekType(b []byte) (Type, error) {
	if len(b) < HeaderLen {
		return 0, ErrTruncated
	}
	if binary.BigEndian.Uint16(b[0:2]) != Magic {
		return 0, ErrBadMagic
	}
	if b[2] != Version {
		return 0, ErrBadVersion
	}
	return Type(b[3]), nil
}

func checkHeader(b []byte, want Type, bodyLen int) error {
	t, err := PeekType(b)
	if err != nil {
		return err
	}
	if t != want {
		return fmt.Errorf("%w: got %v, want %v", ErrBadType, t, want)
	}
	if len(b) < HeaderLen+bodyLen {
		return ErrTruncated
	}
	return nil
}

// Ping is the latency probe used during server selection (§2, §5.1).
type Ping struct {
	Seq    uint32
	SentNS uint64 // client send time, echoed by the server
}

// PingLen is the encoded size of a Ping.
const PingLen = HeaderLen + 12

// AppendTo encodes p into b, which must have at least PingLen capacity from
// its length; it returns the extended slice.
func (p *Ping) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, PingLen)...)
	putHeader(b[off:], TypePing)
	binary.BigEndian.PutUint32(b[off+4:], p.Seq)
	binary.BigEndian.PutUint64(b[off+8:], p.SentNS)
	return b
}

// Decode parses b into p.
func (p *Ping) Decode(b []byte) error {
	if err := checkHeader(b, TypePing, 12); err != nil {
		return err
	}
	p.Seq = binary.BigEndian.Uint32(b[4:])
	p.SentNS = binary.BigEndian.Uint64(b[8:])
	return nil
}

// Pong answers a Ping, echoing its sequence number and send time.
type Pong struct {
	Seq    uint32
	EchoNS uint64
}

// PongLen is the encoded size of a Pong.
const PongLen = HeaderLen + 12

// AppendTo encodes p into b and returns the extended slice.
func (p *Pong) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, PongLen)...)
	putHeader(b[off:], TypePong)
	binary.BigEndian.PutUint32(b[off+4:], p.Seq)
	binary.BigEndian.PutUint64(b[off+8:], p.EchoNS)
	return b
}

// Decode parses b into p.
func (p *Pong) Decode(b []byte) error {
	if err := checkHeader(b, TypePong, 12); err != nil {
		return err
	}
	p.Seq = binary.BigEndian.Uint32(b[4:])
	p.EchoNS = binary.BigEndian.Uint64(b[8:])
	return nil
}

// KbpsFromMbps converts a rate in Mbps to the wire's Kbps representation,
// saturating rather than overflowing.
func KbpsFromMbps(mbps float64) uint32 {
	if mbps <= 0 {
		return 0
	}
	k := mbps * 1000
	if k >= float64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(k)
}

// MbpsFromKbps converts the wire's Kbps representation back to Mbps.
func MbpsFromKbps(kbps uint32) float64 { return float64(kbps) / 1000 }
