package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestPingRoundTrip(t *testing.T) {
	in := Ping{Seq: 42, SentNS: 123456789}
	buf := in.AppendTo(nil)
	if len(buf) != PingLen {
		t.Fatalf("encoded len = %d, want %d", len(buf), PingLen)
	}
	var out Ping
	if err := out.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestPongRoundTrip(t *testing.T) {
	in := Pong{Seq: 7, EchoNS: 99}
	var out Pong
	if err := out.Decode(in.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestDataEncodeHeaderMatchesAppendTo(t *testing.T) {
	payload := bytes.Repeat([]byte{0x00}, 1176)
	in := Data2{SessionID: 77, Seq: 4242, SentNS: 999999, Payload: payload}
	want := in.AppendTo(nil)

	// EncodeHeader into a zero-padded pooled buffer must give the same bytes.
	got := make([]byte, DataHeaderLen+len(payload))
	in.EncodeHeader(got)
	if !bytes.Equal(got, want) {
		t.Error("EncodeHeader and AppendTo disagree on the wire bytes")
	}

	// Restamping must touch only the header region.
	got[DataHeaderLen] = 0xFF
	in.Seq = 4243
	in.EncodeHeader(got)
	if got[DataHeaderLen] != 0xFF {
		t.Error("EncodeHeader wrote past DataHeaderLen into the payload region")
	}
	var out Data2
	if err := out.Decode(got); err != nil {
		t.Fatal(err)
	}
	if out.Seq != 4243 {
		t.Errorf("restamped Seq = %d, want 4243", out.Seq)
	}
}

func TestDataEncodeHeaderAllocs(t *testing.T) {
	buf := make([]byte, DataHeaderLen)
	d := Data2{SessionID: 1, Seq: 2, SentNS: 3}
	if n := testing.AllocsPerRun(100, func() { d.EncodeHeader(buf) }); n != 0 {
		t.Errorf("EncodeHeader allocates %.1f per call, want 0", n)
	}
}

func TestDataPayloadAliasesBuffer(t *testing.T) {
	in := Data2{SessionID: 1, Payload: []byte{1, 2, 3}}
	buf := in.AppendTo(nil)
	var out Data2
	if err := out.Decode(buf); err != nil {
		t.Fatal(err)
	}
	buf[DataHeaderLen] = 9
	if out.Payload[0] != 9 {
		t.Error("Payload should alias the input buffer (zero-copy decode)")
	}
}

func TestPeekType(t *testing.T) {
	buf := (&Ping{Seq: 1}).AppendTo(nil)
	typ, err := PeekType(buf)
	if err != nil || typ != TypePing {
		t.Errorf("PeekType = %v, %v", typ, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := (&Ping{Seq: 1}).AppendTo(nil)

	var p Ping
	if err := p.Decode(valid[:3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: %v, want ErrTruncated", err)
	}
	if err := p.Decode(valid[:PingLen-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short body: %v, want ErrTruncated", err)
	}

	bad := append([]byte(nil), valid...)
	bad[0] = 0
	if err := p.Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v, want ErrBadMagic", err)
	}

	badVer := append([]byte(nil), valid...)
	badVer[2] = 99
	if err := p.Decode(badVer); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v, want ErrBadVersion", err)
	}

	var pong Pong
	if err := pong.Decode(valid); err == nil {
		t.Error("decoding Ping bytes as Pong should fail with ErrBadType")
	}
}

func TestAppendToExistingBuffer(t *testing.T) {
	// Messages append after existing content without clobbering it.
	prefix := []byte("prefix")
	buf := (&Ping{Seq: 5}).AppendTo(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(buf, prefix) {
		t.Fatal("prefix clobbered")
	}
	var out Ping
	if err := out.Decode(buf[len(prefix):]); err != nil {
		t.Fatal(err)
	}
	if out.Seq != 5 {
		t.Errorf("Seq = %d", out.Seq)
	}
}

// TestRoundTripProperty property-checks encode→decode identity for the
// fixed-size messages.
func TestRoundTripProperty(t *testing.T) {
	f := func(id uint64, seq, rate, dur uint32) bool {
		r := Rate2{SessionID: id, RateKbps: rate, Seq: seq}
		var r2 Rate2
		if err := r2.Decode(r.AppendTo(nil)); err != nil || r2 != r {
			return false
		}
		bye := Bye{SessionID: id, ResultKbps: rate, DurationMS: dur, Regime: uint8(seq)}
		var b2 Bye
		if err := b2.Decode(bye.AppendTo(nil)); err != nil || b2 != bye {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRateConversions(t *testing.T) {
	if KbpsFromMbps(300) != 300000 {
		t.Error("300 Mbps != 300000 Kbps")
	}
	if KbpsFromMbps(-1) != 0 {
		t.Error("negative rate should clamp to 0")
	}
	if KbpsFromMbps(1e12) != ^uint32(0) {
		t.Error("huge rate should saturate")
	}
	if math.Abs(MbpsFromKbps(123456)-123.456) > 1e-9 {
		t.Error("Kbps→Mbps wrong")
	}
}

func TestTypeStrings(t *testing.T) {
	for typ, want := range map[Type]string{
		TypePing: "ping", TypePong: "pong", TypeData2: "data2",
		TypeRate2: "rate2", Type(3): "unknown(3)", Type(200): "unknown(200)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}
