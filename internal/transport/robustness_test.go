package transport

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// TestServerSurvivesGarbage floods the server with malformed datagrams of
// every size and then confirms it still answers pings.
func TestServerSurvivesGarbage(t *testing.T) {
	s := startServer(t, ServerConfig{})
	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 1500)
	for i := 0; i < 500; i++ {
		n := rng.Intn(len(buf)) + 1
		rng.Read(buf[:n])
		if _, err := conn.Write(buf[:n]); err != nil {
			t.Fatal(err)
		}
	}
	// Valid magic but truncated bodies and unknown types.
	for _, typ := range []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 200} {
		pkt := []byte{0x57, 0x54, 1, typ}
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := PingServerContext(context.Background(), s.Addr().String(), 2, time.Second); err != nil {
		t.Fatalf("server unresponsive after garbage: %v", err)
	}
}

// TestIdleSessionReaped verifies that a session whose client vanishes
// without a Bye is cleaned up by the idle timeout.
func TestIdleSessionReaped(t *testing.T) {
	s := startServer(t, ServerConfig{UplinkMbps: 10, IdleTimeout: 300 * time.Millisecond})
	// Handshake, then disappear.
	ts := openSession(t, s, 42, wire.KbpsFromMbps(1), wire.Token{})
	if s.ActiveSessions() == 0 {
		t.Fatal("session never started")
	}
	ts.ctrl.Close() // the client is gone; no Bye will ever arrive
	ts.data.Close()

	deadline := time.Now().Add(3 * time.Second)
	for s.ActiveSessions() != 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := s.ActiveSessions(); n != 0 {
		t.Errorf("sessions = %d after idle timeout, want 0", n)
	}
}

// TestClientSurvivesServerDeath kills the server mid-test: the engine must
// terminate at its deadline with whatever it observed, not hang.
func TestClientSurvivesServerDeath(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", ServerConfig{UplinkMbps: 50})
	if err != nil {
		t.Fatal(err)
	}
	pool := &ServerPool{Servers: []PoolServer{{Addr: s.Addr().String(), UplinkMbps: 50}}}
	probe, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Finish(0, 0)

	model := gmm.MustNew(gmm.Component{Weight: 1, Mu: 10, Sigma: 2})
	// Kill the server shortly after the test starts.
	go func() {
		time.Sleep(300 * time.Millisecond)
		s.Close()
	}()
	start := time.Now()
	res, err := core.Run(probe, core.Config{Model: model, MaxDuration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("engine hung for %v after server death", elapsed)
	}
	// The trailing window is all-zero after the server died; the result
	// reflects that rather than inventing bandwidth.
	if res.Bandwidth > 15 {
		t.Errorf("bandwidth = %.1f after server death", res.Bandwidth)
	}
}

// TestRateSetReorderingIgnoresStale delivers rate updates out of order and
// confirms the newest seq wins.
func TestRateSetReorderingIgnoresStale(t *testing.T) {
	s := startServer(t, ServerConfig{UplinkMbps: 100})
	ts := openSession(t, s, 7, 0, wire.Token{})

	// Newest first (seq 3, 20 Mbps), then a stale one (seq 2, 90 Mbps).
	r3 := wire.Rate2{SessionID: ts.id, RateKbps: wire.KbpsFromMbps(20), Seq: 3}
	r2 := wire.Rate2{SessionID: ts.id, RateKbps: wire.KbpsFromMbps(90), Seq: 2}
	ts.send(t, r3.AppendTo(nil))
	time.Sleep(20 * time.Millisecond)
	ts.send(t, r2.AppendTo(nil))

	// Measure the arrival rate for half a second; it must track 20, not 90.
	time.Sleep(100 * time.Millisecond)
	var bytes int
	buf := make([]byte, 2048)
	end := time.Now().Add(500 * time.Millisecond)
	_ = ts.data.SetReadDeadline(end)
	for {
		n, err := ts.data.Read(buf)
		if err != nil {
			break
		}
		var d wire.Data2
		if d.Decode(buf[:n]) == nil {
			bytes += n
		}
	}
	gotMbps := float64(bytes) * 8 / 0.5 / 1e6
	if gotMbps > 40 {
		t.Errorf("stale rate update won: measured %.1f Mbps, want ≈20", gotMbps)
	}
	if gotMbps == 0 {
		t.Error("no traffic at the newest rate")
	}
	bye := wire.Bye{SessionID: ts.id}
	ts.send(t, bye.AppendTo(nil))
}

// TestDuplicateTestRequestIsIdempotent retransmits the session Setup and
// checks only one session exists.
func TestDuplicateTestRequestIsIdempotent(t *testing.T) {
	s := startServer(t, ServerConfig{UplinkMbps: 10})
	ts := openSession(t, s, 9, wire.KbpsFromMbps(1), wire.Token{})
	setup := wire.Setup{SessionID: ts.id, RateKbps: wire.KbpsFromMbps(1)}
	for i := 0; i < 5; i++ {
		ts.send(t, setup.AppendTo(nil))
	}
	// Every retransmit is re-acked for the one session.
	buf := make([]byte, 256)
	acks := 0
	_ = ts.ctrl.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	for acks < 5 {
		n, err := ts.ctrl.Read(buf)
		if err != nil {
			break
		}
		var ack wire.SetupAck
		if ack.Decode(buf[:n]) == nil && ack.SessionID == ts.id {
			acks++
		}
	}
	if acks != 5 {
		t.Errorf("SetupAcks for duplicate Setups = %d, want 5", acks)
	}
	if n := s.ActiveSessions(); n != 1 {
		t.Errorf("sessions = %d after duplicate requests, want 1", n)
	}
}

// TestJitterObserved checks that a paced stream produces a plausible jitter
// estimate.
func TestJitterObserved(t *testing.T) {
	s := startServer(t, ServerConfig{UplinkMbps: 50})
	pool := &ServerPool{Servers: []PoolServer{{Addr: s.Addr().String(), UplinkMbps: 50}}}
	probe, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Finish(0, 0)
	if err := probe.SetRate(15); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		probe.NextSample()
	}
	j := probe.Jitter()
	if j <= 0 {
		t.Fatal("no jitter estimate after 0.5 s of traffic")
	}
	if j > 100*time.Millisecond {
		t.Errorf("loopback jitter = %v, implausibly large", j)
	}
}
