package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestV2RoundTrips(t *testing.T) {
	tok := MintToken(0xfeedface, 7, 99, 1700000000000)
	msgs := []struct {
		name    string
		msg     codec
		fresh   func() codec
		wantLen int
	}{
		{"Hello", &Hello{MinVersion: 1, MaxVersion: 2, Caps: ServerCaps, Nonce: 11}, func() codec { return new(Hello) }, HelloLen},
		{"HelloAck", &HelloAck{Version: 2, Caps: CapReports, Nonce: 11}, func() codec { return new(HelloAck) }, HelloAckLen},
		{"Setup", &Setup{SessionID: 5, RateKbps: 4000, Token: tok}, func() codec { return new(Setup) }, SetupLen},
		{"SetupAck", &SetupAck{SessionID: 5, Caps: ServerCaps, ReportIntervalMS: 100}, func() codec { return new(SetupAck) }, SetupAckLen},
		{"SetupReject", &SetupReject{SessionID: 5, Code: RejectAuth}, func() codec { return new(SetupReject) }, SetupRejectLen},
		{"DataOpen", &DataOpen{SessionID: 5, Nonce: 22}, func() codec { return new(DataOpen) }, DataOpenLen},
		{"DataOpenAck", &DataOpenAck{SessionID: 5}, func() codec { return new(DataOpenAck) }, DataOpenAckLen},
		{"Rate2", &Rate2{SessionID: 5, RateKbps: 8000, Seq: 3}, func() codec { return new(Rate2) }, Rate2Len},
		{"Report", &Report{SessionID: 5, Seq: 9, SentBytes: 1 << 30, SentDatagrams: 12345}, func() codec { return new(Report) }, ReportLen},
		{"Bye", &Bye{SessionID: 5, ResultKbps: 41000, DurationMS: 2100, CrossingKbps: 41000, TrimmedKbps: 40500, PeakKbps: 43000, P90P80Kbps: 42000, Regime: 3}, func() codec { return new(Bye) }, ByeLen},
		{"ByeAck", &ByeAck{SessionID: 5}, func() codec { return new(ByeAck) }, ByeAckLen},
	}
	for _, m := range msgs {
		t.Run(m.name, func(t *testing.T) {
			buf := m.msg.AppendTo(nil)
			if len(buf) != m.wantLen {
				t.Fatalf("encoded length = %d, want %d", len(buf), m.wantLen)
			}
			ver, _, err := PeekVersion(buf)
			if err != nil || ver != Version2 {
				t.Fatalf("PeekVersion = %d, %v", ver, err)
			}
			decoded := m.fresh()
			if err := decoded.Decode(buf); err != nil {
				t.Fatalf("decode: %v", err)
			}
			again := decoded.AppendTo(nil)
			if !bytes.Equal(buf, again) {
				t.Fatalf("round trip not byte-identical:\n first=%x\nsecond=%x", buf, again)
			}
			// Appending to a non-empty buffer must not clobber the prefix.
			prefix := []byte{0xDE, 0xAD}
			appended := decoded.AppendTo(append([]byte(nil), prefix...))
			if !bytes.Equal(appended[:len(prefix)], prefix) || !bytes.Equal(appended[len(prefix):], buf) {
				t.Fatal("AppendTo clobbered the destination prefix")
			}
		})
	}
}

func TestData2RoundTrip(t *testing.T) {
	in := Data2{SessionID: 77, Seq: 8, SentNS: 123456789, Payload: bytes.Repeat([]byte{0x5A}, 100)}
	buf := in.AppendTo(nil)
	if len(buf) != DataHeaderLen+len(in.Payload) {
		t.Fatalf("encoded length = %d", len(buf))
	}
	var out Data2
	if err := out.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if out.SessionID != in.SessionID || out.Seq != in.Seq || out.SentNS != in.SentNS ||
		!bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestData2EncodeHeaderMatchesAppendTo(t *testing.T) {
	// The in-place header stamp used on pooled pacing buffers must produce
	// exactly the bytes AppendTo would.
	d := Data2{SessionID: 3, Seq: 17, SentNS: 999}
	appended := d.AppendTo(nil)
	inPlace := make([]byte, DataHeaderLen)
	d.EncodeHeader(inPlace)
	if !bytes.Equal(appended[:DataHeaderLen], inPlace) {
		t.Fatalf("EncodeHeader diverges from AppendTo:\nappend=%x\ninplace=%x", appended[:DataHeaderLen], inPlace)
	}
}

func TestPeekVersionAcceptsBoth(t *testing.T) {
	v1buf := (&Ping{Seq: 1}).AppendTo(nil)
	ver, typ, err := PeekVersion(v1buf)
	if err != nil || ver != Version || typ != TypePing {
		t.Errorf("v1: PeekVersion = %d, %v, %v", ver, typ, err)
	}
	v2buf := (&Hello{MinVersion: 1, MaxVersion: 2}).AppendTo(nil)
	ver, typ, err = PeekVersion(v2buf)
	if err != nil || ver != Version2 || typ != TypeHello {
		t.Errorf("v2: PeekVersion = %d, %v, %v", ver, typ, err)
	}

	if _, _, err := PeekVersion(v2buf[:3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v, want ErrTruncated", err)
	}
	bad := append([]byte(nil), v2buf...)
	bad[2] = 7
	if _, _, err := PeekVersion(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v, want ErrBadVersion", err)
	}
	bad[0] = 0
	if _, _, err := PeekVersion(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v, want ErrBadMagic", err)
	}
}

func TestV2DecodeErrors(t *testing.T) {
	buf := (&Setup{SessionID: 1}).AppendTo(nil)
	var s Setup
	if err := s.Decode(buf[:SetupLen-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short body: %v, want ErrTruncated", err)
	}
	// A version-1 frame fed to a session decoder is a version error, not a
	// type error: the version byte separates the grammars.
	ping := (&Ping{Seq: 1}).AppendTo(nil)
	if err := s.Decode(ping); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version-1 frame: %v, want ErrBadVersion", err)
	}
	var ack SetupAck
	if err := ack.Decode(buf); !errors.Is(err, ErrBadType) {
		t.Errorf("wrong type: %v, want ErrBadType", err)
	}
}

func TestV2TypeStrings(t *testing.T) {
	for typ := TypeHello; typ <= TypeByeAck; typ++ {
		if s := typ.String(); s == "" || len(s) > 16 && s[:8] == "unknown(" {
			t.Errorf("Type(%d).String() = %q", typ, s)
		}
	}
	if s := Type(200).String(); s != "unknown(200)" {
		t.Errorf("unknown type: %q", s)
	}
}

func TestTokenMintVerify(t *testing.T) {
	const key = uint64(0x1122334455667788)
	tok := MintToken(key, 3, 42, 1700000000000)
	if !tok.Verify(key) {
		t.Fatal("freshly minted token fails verification")
	}
	if tok.Verify(key + 1) {
		t.Error("token verifies under the wrong key")
	}
	forged := tok
	forged.Seq++
	if forged.Verify(key) {
		t.Error("tampered seq still verifies")
	}
	forged = tok
	forged.Server++
	if forged.Verify(key) {
		t.Error("tampered server still verifies")
	}
	forged = tok
	forged.Expires += 60_000
	if forged.Verify(key) {
		t.Error("stretched expiry still verifies — the MAC must cover Expires")
	}
	if tok.IsZero() {
		t.Error("minted token reads as zero")
	}
	if !(Token{}).IsZero() {
		t.Error("zero token not recognised")
	}
}

func TestTokenExpiredAt(t *testing.T) {
	const deadline = uint64(1_700_000_000_000)
	tok := MintToken(9, 1, 2, deadline)
	if tok.ExpiredAt(deadline - 1) {
		t.Error("token expired before its deadline")
	}
	if tok.ExpiredAt(deadline) {
		t.Error("token expired at its deadline — the deadline instant is still valid")
	}
	if !tok.ExpiredAt(deadline + 1) {
		t.Error("token still valid past its deadline")
	}
	forever := MintToken(9, 1, 2, 0)
	if forever.ExpiredAt(^uint64(0)) {
		t.Error("zero-deadline token expired")
	}
}

func TestTokenStringRoundTrip(t *testing.T) {
	tok := MintToken(7, 2, 1001, 1700000000123)
	s := tok.String()
	if len(s) != 2*TokenLen {
		t.Fatalf("token hex length = %d, want %d", len(s), 2*TokenLen)
	}
	back, err := ParseToken(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != tok {
		t.Errorf("round trip: got %+v, want %+v", back, tok)
	}
	if _, err := ParseToken("zz"); err == nil {
		t.Error("ParseToken accepted junk")
	}
	if _, err := ParseToken("aabb"); err == nil {
		t.Error("ParseToken accepted a short token")
	}
}

func TestTokenMACDistribution(t *testing.T) {
	// Distinct (server, seq) pairs must yield distinct MACs under one key —
	// a smoke check that the SipHash rounds actually mix.
	seen := map[uint64]bool{}
	for server := uint32(0); server < 8; server++ {
		for seq := uint64(0); seq < 64; seq++ {
			mac := MintToken(1, server, seq, 0).MAC
			if seen[mac] {
				t.Fatalf("MAC collision at server=%d seq=%d", server, seq)
			}
			seen[mac] = true
		}
	}
}

func TestSipHashVectors(t *testing.T) {
	// Reference vectors from the SipHash paper (Appendix A): key
	// 000102…0f, messages 00, 0001, …; expected SipHash-2-4 outputs.
	k0 := uint64(0x0706050403020100)
	k1 := uint64(0x0f0e0d0c0b0a0908)
	want := []uint64{
		0x726fdb47dd0e0e31, // empty message
		0x74f839c593dc67fd, // 00
		0x0d6c8009d9a94f5a, // 00 01
		0x85676696d7fb7e2d, // 00 01 02
		0xcf2794e0277187b7, // …
		0x18765564cd99a68d,
		0xcbc9466e58fee3ce,
		0xab0200f58b01d137,
		0x93f5f5799a932462,
		0x9e0082df0ba9e4b0,
		0x7a5dbbc594ddb9f3,
		0xf4b32f46226bada7,
		0x751e8fbc860ee5fb,
	}
	msg := make([]byte, 0, len(want))
	for i, w := range want {
		if got := sipHash24(k0, k1, msg); got != w {
			t.Errorf("sipHash24(len=%d) = %#016x, want %#016x", i, got, w)
		}
		msg = append(msg, byte(i))
	}
}

func TestTokenPropertyRoundTrip(t *testing.T) {
	f := func(key uint64, server uint32, seq uint64, expires uint64) bool {
		tok := MintToken(key, server, seq, expires)
		back, err := ParseToken(tok.String())
		return err == nil && back == tok && back.Verify(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
