// Session frames: the control-channel handshake and the data channel. The
// message flow is drawn in the package documentation.
package wire

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Version2 is the two-channel protocol revision.
const Version2 uint8 = 2

// Session message types, carried under version byte 2.
const (
	TypeHello Type = 9 + iota
	TypeHelloAck
	TypeSetup
	TypeSetupAck
	TypeSetupReject
	TypeDataOpen
	TypeDataOpenAck
	TypeRate2
	TypeReport
	TypeData2
	TypeBye
	TypeByeAck
)

// Capability bits negotiated by Hello/HelloAck. A capability is active for
// the session only when both sides advertise it.
const (
	// CapReports: the server sends per-interval Report messages on the
	// control channel (cumulative paced bytes and datagrams), so the client
	// can compute delivery loss without clock synchronisation.
	CapReports uint32 = 1 << 0
	// CapEstimates: the client's final Bye carries the full estimator family
	// (crossing, trimmed mean, sustained peak, P90–P80) and the BDP regime
	// classification, not just the headline figure.
	CapEstimates uint32 = 1 << 1
	// CapSegmented: the server sends probe data as segmentation-offload
	// super-packets (GSO), which a client's UDP receive offload (GRO) can
	// take whole. A server without the offload leaves it out, and its
	// client then reads plain datagrams without receive offload.
	CapSegmented uint32 = 1 << 2
)

// ServerCaps is the capability set this implementation's server can
// advertise; one without segmentation offload drops CapSegmented.
const ServerCaps = CapReports | CapEstimates | CapSegmented

// SetupReject codes.
const (
	// RejectAuth: the Setup token failed lease authentication.
	RejectAuth uint8 = 1
	// RejectBusy: the server cannot admit another session.
	RejectBusy uint8 = 2
)

func putHeader2(b []byte, t Type) {
	binary.BigEndian.PutUint16(b[0:2], Magic)
	b[2] = Version2
	b[3] = uint8(t)
}

// PeekVersion validates the common header of b and returns its version
// byte and message type. Unlike PeekType, it accepts both version bytes in
// use: 1 (Ping, Pong) and 2 (every session frame).
func PeekVersion(b []byte) (uint8, Type, error) {
	if len(b) < HeaderLen {
		return 0, 0, ErrTruncated
	}
	if binary.BigEndian.Uint16(b[0:2]) != Magic {
		return 0, 0, ErrBadMagic
	}
	if b[2] != Version && b[2] != Version2 {
		return 0, 0, ErrBadVersion
	}
	return b[2], Type(b[3]), nil
}

func checkHeader2(b []byte, want Type, bodyLen int) error {
	ver, t, err := PeekVersion(b)
	if err != nil {
		return err
	}
	if ver != Version2 {
		return fmt.Errorf("%w: got %d, want %d", ErrBadVersion, ver, Version2)
	}
	if t != want {
		return fmt.Errorf("%w: got %v, want %v", ErrBadType, t, want)
	}
	if len(b) < HeaderLen+bodyLen {
		return ErrTruncated
	}
	return nil
}

// Token authenticates a session against the fleet dispatcher's lease: the
// dispatcher mints it from (server, lease seq, expiry) under a shared key,
// and any server holding the key verifies it without state. The MAC is
// SipHash-2-4, so a client cannot forge admission — or stretch a lease's
// lifetime — without the fleet key.
type Token struct {
	Server  uint32 // fleet server ID the lease admits the client to
	Seq     uint64 // lease sequence number
	Expires uint64 // unix-ms expiry deadline; 0 means the token never expires
	MAC     uint64 // SipHash-2-4 over (Server, Seq, Expires) under the fleet key
}

// TokenLen is the encoded size of a Token.
const TokenLen = 28

// MintToken authenticates (server, seq) under key until expires (unix-ms; 0
// mints a token that never expires). A deployment's dispatcher and servers
// share the key out of band (CLI flag, config file).
func MintToken(key uint64, server uint32, seq uint64, expires uint64) Token {
	return Token{Server: server, Seq: seq, Expires: expires, MAC: tokenMAC(key, server, seq, expires)}
}

// Verify reports whether t's MAC is valid under key. Expiry is a separate
// check (ExpiredAt) — the MAC covers Expires, so a stale token cannot be
// refreshed by rewriting the deadline.
func (t Token) Verify(key uint64) bool {
	return t.MAC == tokenMAC(key, t.Server, t.Seq, t.Expires)
}

// ExpiredAt reports whether t's lease deadline has passed at nowMS (unix
// milliseconds). Tokens minted with Expires 0 never expire.
func (t Token) ExpiredAt(nowMS uint64) bool {
	return t.Expires != 0 && nowMS > t.Expires
}

// IsZero reports whether t is the absent token.
func (t Token) IsZero() bool { return t == Token{} }

// String encodes t as 56 hex characters, the form it travels in JSON control
// planes and CLI flags.
func (t Token) String() string {
	var b [TokenLen]byte
	t.put(b[:])
	return hex.EncodeToString(b[:])
}

// ParseToken decodes a Token from its hex form.
func ParseToken(s string) (Token, error) {
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != TokenLen {
		return Token{}, fmt.Errorf("wire: bad token %q", s)
	}
	var t Token
	t.get(raw)
	return t, nil
}

func (t Token) put(b []byte) {
	binary.BigEndian.PutUint32(b[0:4], t.Server)
	binary.BigEndian.PutUint64(b[4:12], t.Seq)
	binary.BigEndian.PutUint64(b[12:20], t.Expires)
	binary.BigEndian.PutUint64(b[20:28], t.MAC)
}

func (t *Token) get(b []byte) {
	t.Server = binary.BigEndian.Uint32(b[0:4])
	t.Seq = binary.BigEndian.Uint64(b[4:12])
	t.Expires = binary.BigEndian.Uint64(b[12:20])
	t.MAC = binary.BigEndian.Uint64(b[20:28])
}

// tokenMAC computes SipHash-2-4 over the 20-byte (server, seq, expires)
// message with the 128-bit key (key, key ^ sipKeySplit).
func tokenMAC(key uint64, server uint32, seq uint64, expires uint64) uint64 {
	var msg [20]byte
	binary.LittleEndian.PutUint32(msg[0:4], server)
	binary.LittleEndian.PutUint64(msg[4:12], seq)
	binary.LittleEndian.PutUint64(msg[12:20], expires)
	return sipHash24(key, key^sipKeySplit, msg[:])
}

// sipKeySplit derives the second SipHash key word from the single configured
// key, so operators manage one 64-bit secret.
const sipKeySplit = 0x9e3779b97f4a7c15

// sipHash24 is SipHash-2-4 (Aumasson & Bernstein), the standard short-input
// keyed hash. Implemented locally to keep the repository dependency-free.
func sipHash24(k0, k1 uint64, msg []byte) uint64 {
	v0 := k0 ^ 0x736f6d6570736575
	v1 := k1 ^ 0x646f72616e646f6d
	v2 := k0 ^ 0x6c7967656e657261
	v3 := k1 ^ 0x7465646279746573

	round := func() {
		v0 += v1
		v1 = v1<<13 | v1>>51
		v1 ^= v0
		v0 = v0<<32 | v0>>32
		v2 += v3
		v3 = v3<<16 | v3>>48
		v3 ^= v2
		v0 += v3
		v3 = v3<<21 | v3>>43
		v3 ^= v0
		v2 += v1
		v1 = v1<<17 | v1>>47
		v1 ^= v2
		v2 = v2<<32 | v2>>32
	}

	n := len(msg)
	for len(msg) >= 8 {
		m := binary.LittleEndian.Uint64(msg)
		v3 ^= m
		round()
		round()
		v0 ^= m
		msg = msg[8:]
	}
	var last uint64 = uint64(n) << 56
	for i, b := range msg {
		last |= uint64(b) << (8 * i)
	}
	v3 ^= last
	round()
	round()
	v0 ^= last
	v2 ^= 0xff
	round()
	round()
	round()
	round()
	return v0 ^ v1 ^ v2 ^ v3
}

// Hello opens version negotiation on the control channel: the client offers
// the version range it speaks and the capabilities it wants.
type Hello struct {
	MinVersion uint8
	MaxVersion uint8
	Caps       uint32
	Nonce      uint64 // echoed in HelloAck, pairing answer with question; random, never 0
}

// HelloLen is the encoded size of a Hello.
const HelloLen = HeaderLen + 14

// AppendTo encodes h into b and returns the extended slice.
func (h *Hello) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, HelloLen)...)
	putHeader2(b[off:], TypeHello)
	b[off+4] = h.MinVersion
	b[off+5] = h.MaxVersion
	binary.BigEndian.PutUint32(b[off+6:], h.Caps)
	binary.BigEndian.PutUint64(b[off+10:], h.Nonce)
	return b
}

// Decode parses b into h.
func (h *Hello) Decode(b []byte) error {
	if err := checkHeader2(b, TypeHello, 14); err != nil {
		return err
	}
	h.MinVersion = b[4]
	h.MaxVersion = b[5]
	h.Caps = binary.BigEndian.Uint32(b[6:])
	h.Nonce = binary.BigEndian.Uint64(b[10:])
	return nil
}

// HelloAck answers a Hello with the selected version and the capability
// intersection.
type HelloAck struct {
	Version uint8
	Caps    uint32
	Nonce   uint64
}

// HelloAckLen is the encoded size of a HelloAck.
const HelloAckLen = HeaderLen + 13

// AppendTo encodes h into b and returns the extended slice.
func (h *HelloAck) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, HelloAckLen)...)
	putHeader2(b[off:], TypeHelloAck)
	b[off+4] = h.Version
	binary.BigEndian.PutUint32(b[off+5:], h.Caps)
	binary.BigEndian.PutUint64(b[off+9:], h.Nonce)
	return b
}

// Decode parses b into h.
func (h *HelloAck) Decode(b []byte) error {
	if err := checkHeader2(b, TypeHelloAck, 13); err != nil {
		return err
	}
	h.Version = b[4]
	h.Caps = binary.BigEndian.Uint32(b[5:])
	h.Nonce = binary.BigEndian.Uint64(b[9:])
	return nil
}

// Setup starts a session on the control channel, authenticated by the
// dispatcher-lease token (all-zero on open deployments).
type Setup struct {
	SessionID uint64
	RateKbps  uint32
	Token     Token
}

// SetupLen is the encoded size of a Setup.
const SetupLen = HeaderLen + 12 + TokenLen

// AppendTo encodes s into b and returns the extended slice.
func (s *Setup) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, SetupLen)...)
	putHeader2(b[off:], TypeSetup)
	binary.BigEndian.PutUint64(b[off+4:], s.SessionID)
	binary.BigEndian.PutUint32(b[off+12:], s.RateKbps)
	s.Token.put(b[off+16:])
	return b
}

// Decode parses b into s.
func (s *Setup) Decode(b []byte) error {
	if err := checkHeader2(b, TypeSetup, 12+TokenLen); err != nil {
		return err
	}
	s.SessionID = binary.BigEndian.Uint64(b[4:])
	s.RateKbps = binary.BigEndian.Uint32(b[12:])
	s.Token.get(b[16:])
	return nil
}

// SetupAck admits a session: the active capability set and the cadence of
// per-interval Reports (when CapReports is active).
type SetupAck struct {
	SessionID        uint64
	Caps             uint32
	ReportIntervalMS uint32
}

// SetupAckLen is the encoded size of a SetupAck.
const SetupAckLen = HeaderLen + 16

// AppendTo encodes s into b and returns the extended slice.
func (s *SetupAck) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, SetupAckLen)...)
	putHeader2(b[off:], TypeSetupAck)
	binary.BigEndian.PutUint64(b[off+4:], s.SessionID)
	binary.BigEndian.PutUint32(b[off+12:], s.Caps)
	binary.BigEndian.PutUint32(b[off+16:], s.ReportIntervalMS)
	return b
}

// Decode parses b into s.
func (s *SetupAck) Decode(b []byte) error {
	if err := checkHeader2(b, TypeSetupAck, 16); err != nil {
		return err
	}
	s.SessionID = binary.BigEndian.Uint64(b[4:])
	s.Caps = binary.BigEndian.Uint32(b[12:])
	s.ReportIntervalMS = binary.BigEndian.Uint32(b[16:])
	return nil
}

// SetupReject refuses a session (RejectAuth, RejectBusy). Explicit rejection
// lets the client distinguish a policy refusal from packet loss instead of
// burning its handshake retry budget.
type SetupReject struct {
	SessionID uint64
	Code      uint8
}

// SetupRejectLen is the encoded size of a SetupReject.
const SetupRejectLen = HeaderLen + 9

// AppendTo encodes s into b and returns the extended slice.
func (s *SetupReject) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, SetupRejectLen)...)
	putHeader2(b[off:], TypeSetupReject)
	binary.BigEndian.PutUint64(b[off+4:], s.SessionID)
	b[off+12] = s.Code
	return b
}

// Decode parses b into s.
func (s *SetupReject) Decode(b []byte) error {
	if err := checkHeader2(b, TypeSetupReject, 9); err != nil {
		return err
	}
	s.SessionID = binary.BigEndian.Uint64(b[4:])
	s.Code = b[12]
	return nil
}

// DataOpen is the first datagram on the data channel: it binds the data
// socket's 4-tuple to the session, telling the server where to pace probe
// traffic. Nonce repeats the client's Hello nonce, a random value that
// proves the sender is the client that said Hello; the server ignores a
// DataOpen whose nonce differs from the one the session's Hello carried.
type DataOpen struct {
	SessionID uint64
	Nonce     uint64
}

// DataOpenLen is the encoded size of a DataOpen.
const DataOpenLen = HeaderLen + 16

// AppendTo encodes d into b and returns the extended slice.
func (d *DataOpen) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, DataOpenLen)...)
	putHeader2(b[off:], TypeDataOpen)
	binary.BigEndian.PutUint64(b[off+4:], d.SessionID)
	binary.BigEndian.PutUint64(b[off+12:], d.Nonce)
	return b
}

// Decode parses b into d.
func (d *DataOpen) Decode(b []byte) error {
	if err := checkHeader2(b, TypeDataOpen, 16); err != nil {
		return err
	}
	d.SessionID = binary.BigEndian.Uint64(b[4:])
	d.Nonce = binary.BigEndian.Uint64(b[12:])
	return nil
}

// DataOpenAck confirms the data-channel binding, sent to the data socket.
type DataOpenAck struct {
	SessionID uint64
}

// DataOpenAckLen is the encoded size of a DataOpenAck.
const DataOpenAckLen = HeaderLen + 8

// AppendTo encodes d into b and returns the extended slice.
func (d *DataOpenAck) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, DataOpenAckLen)...)
	putHeader2(b[off:], TypeDataOpenAck)
	binary.BigEndian.PutUint64(b[off+4:], d.SessionID)
	return b
}

// Decode parses b into d.
func (d *DataOpenAck) Decode(b []byte) error {
	if err := checkHeader2(b, TypeDataOpenAck, 8); err != nil {
		return err
	}
	d.SessionID = binary.BigEndian.Uint64(b[4:])
	return nil
}

// Rate2 retunes the session's pacing rate on the control channel.
type Rate2 struct {
	SessionID uint64
	RateKbps  uint32
	Seq       uint32 // monotonically increasing; stale updates are ignored
}

// Rate2Len is the encoded size of a Rate2.
const Rate2Len = HeaderLen + 16

// AppendTo encodes r into b and returns the extended slice.
func (r *Rate2) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, Rate2Len)...)
	putHeader2(b[off:], TypeRate2)
	binary.BigEndian.PutUint64(b[off+4:], r.SessionID)
	binary.BigEndian.PutUint32(b[off+12:], r.RateKbps)
	binary.BigEndian.PutUint32(b[off+16:], r.Seq)
	return b
}

// Decode parses b into r.
func (r *Rate2) Decode(b []byte) error {
	if err := checkHeader2(b, TypeRate2, 16); err != nil {
		return err
	}
	r.SessionID = binary.BigEndian.Uint64(b[4:])
	r.RateKbps = binary.BigEndian.Uint32(b[12:])
	r.Seq = binary.BigEndian.Uint32(b[16:])
	return nil
}

// Report is the server's per-interval account on the control channel:
// cumulative paced bytes and datagrams for the session. The client subtracts
// what it received to observe delivery loss — no clock synchronisation
// needed, cumulative counters make every Report self-contained under loss.
type Report struct {
	SessionID     uint64
	Seq           uint32
	SentBytes     uint64
	SentDatagrams uint32
}

// ReportLen is the encoded size of a Report.
const ReportLen = HeaderLen + 24

// AppendTo encodes r into b and returns the extended slice.
func (r *Report) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, ReportLen)...)
	putHeader2(b[off:], TypeReport)
	binary.BigEndian.PutUint64(b[off+4:], r.SessionID)
	binary.BigEndian.PutUint32(b[off+12:], r.Seq)
	binary.BigEndian.PutUint64(b[off+16:], r.SentBytes)
	binary.BigEndian.PutUint32(b[off+24:], r.SentDatagrams)
	return b
}

// Decode parses b into r.
func (r *Report) Decode(b []byte) error {
	if err := checkHeader2(b, TypeReport, 24); err != nil {
		return err
	}
	r.SessionID = binary.BigEndian.Uint64(b[4:])
	r.Seq = binary.BigEndian.Uint32(b[12:])
	r.SentBytes = binary.BigEndian.Uint64(b[16:])
	r.SentDatagrams = binary.BigEndian.Uint32(b[24:])
	return nil
}

// DataHeaderLen is the non-payload prefix of a Data2 datagram.
const DataHeaderLen = HeaderLen + 20

// Data2 is one paced probe datagram on the data channel: session ID, seq,
// send timestamp, padding — nothing else. The payload is padding that brings
// the datagram to the probing packet size; its content is arbitrary.
type Data2 struct {
	SessionID uint64
	Seq       uint32
	SentNS    uint64
	Payload   []byte // decoded in place: aliases the input buffer
}

// AppendTo encodes d (header plus payload) into b and returns the extended
// slice.
func (d *Data2) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, DataHeaderLen)...)
	putHeader2(b[off:], TypeData2)
	binary.BigEndian.PutUint64(b[off+4:], d.SessionID)
	binary.BigEndian.PutUint32(b[off+12:], d.Seq)
	binary.BigEndian.PutUint64(b[off+16:], d.SentNS)
	return append(b, d.Payload...)
}

// EncodeHeader stamps d's header fields into the first DataHeaderLen bytes
// of b in place, leaving the rest of b — the payload region — untouched.
// This is the zero-copy counterpart of AppendTo for pooled buffers whose
// payload padding is written once at allocation: the pacing hot path
// restamps only the 24 header bytes per datagram. b must be at least
// DataHeaderLen long; d.Payload is ignored.
func (d *Data2) EncodeHeader(b []byte) {
	putHeader2(b, TypeData2)
	binary.BigEndian.PutUint64(b[4:], d.SessionID)
	binary.BigEndian.PutUint32(b[12:], d.Seq)
	binary.BigEndian.PutUint64(b[16:], d.SentNS)
}

// Decode parses b into d. Payload aliases b; copy it if it must outlive the
// buffer.
func (d *Data2) Decode(b []byte) error {
	if err := checkHeader2(b, TypeData2, 20); err != nil {
		return err
	}
	d.SessionID = binary.BigEndian.Uint64(b[4:])
	d.Seq = binary.BigEndian.Uint32(b[12:])
	d.SentNS = binary.BigEndian.Uint64(b[16:])
	d.Payload = b[DataHeaderLen:]
	return nil
}

// Bye ends a session, reporting the headline result plus — when
// CapEstimates is active — the full estimator family and the BDP regime
// classification, feeding the server's model-refresh pipeline.
type Bye struct {
	SessionID    uint64
	ResultKbps   uint32
	DurationMS   uint32
	CrossingKbps uint32
	TrimmedKbps  uint32
	PeakKbps     uint32
	P90P80Kbps   uint32
	Regime       uint8
}

// ByeLen is the encoded size of a Bye.
const ByeLen = HeaderLen + 33

// AppendTo encodes f into b and returns the extended slice.
func (f *Bye) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, ByeLen)...)
	putHeader2(b[off:], TypeBye)
	binary.BigEndian.PutUint64(b[off+4:], f.SessionID)
	binary.BigEndian.PutUint32(b[off+12:], f.ResultKbps)
	binary.BigEndian.PutUint32(b[off+16:], f.DurationMS)
	binary.BigEndian.PutUint32(b[off+20:], f.CrossingKbps)
	binary.BigEndian.PutUint32(b[off+24:], f.TrimmedKbps)
	binary.BigEndian.PutUint32(b[off+28:], f.PeakKbps)
	binary.BigEndian.PutUint32(b[off+32:], f.P90P80Kbps)
	b[off+36] = f.Regime
	return b
}

// Decode parses b into f.
func (f *Bye) Decode(b []byte) error {
	if err := checkHeader2(b, TypeBye, 33); err != nil {
		return err
	}
	f.SessionID = binary.BigEndian.Uint64(b[4:])
	f.ResultKbps = binary.BigEndian.Uint32(b[12:])
	f.DurationMS = binary.BigEndian.Uint32(b[16:])
	f.CrossingKbps = binary.BigEndian.Uint32(b[20:])
	f.TrimmedKbps = binary.BigEndian.Uint32(b[24:])
	f.PeakKbps = binary.BigEndian.Uint32(b[28:])
	f.P90P80Kbps = binary.BigEndian.Uint32(b[32:])
	f.Regime = b[36]
	return nil
}

// ByeAck closes a session on receipt.
type ByeAck struct {
	SessionID uint64
}

// ByeAckLen is the encoded size of a ByeAck.
const ByeAckLen = HeaderLen + 8

// AppendTo encodes f into b and returns the extended slice.
func (f *ByeAck) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, ByeAckLen)...)
	putHeader2(b[off:], TypeByeAck)
	binary.BigEndian.PutUint64(b[off+4:], f.SessionID)
	return b
}

// Decode parses b into f.
func (f *ByeAck) Decode(b []byte) error {
	if err := checkHeader2(b, TypeByeAck, 8); err != nil {
		return err
	}
	f.SessionID = binary.BigEndian.Uint64(b[4:])
	return nil
}
