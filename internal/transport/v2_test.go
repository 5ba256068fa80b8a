package transport

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/errdefs"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// v2Probe opens a probe against one server.
func v2Probe(t *testing.T, s *Server, seed int64) *UDPProbe {
	t.Helper()
	pool := &ServerPool{Servers: []PoolServer{{Addr: s.Addr().String(), UplinkMbps: 100}}}
	probe, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return probe
}

// TestV2EndToEnd runs the two-channel protocol on both syscall paths, and
// with an offload-receiving client against a server that sends one datagram
// at a time: negotiation lands on version 2, paced throughput tracks the
// request, per-interval Reports arrive, and the Bye retires the session and
// delivers the result. The session carries CapSegmented exactly when the
// server sends super-packets, the client's receive counters see traffic,
// and no receive coalesces unless both ends take the batched path.
func TestV2EndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name           string
		server, client WireMode
	}{
		{"batched", WireAuto, WireAuto},
		{"fallback", WireFallback, WireFallback},
		{"batched-client-fallback-server", WireFallback, WireAuto},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			results := make(chan float64, 1)
			s := startServer(t, ServerConfig{
				UplinkMbps: 100, Wire: tc.server, Metrics: reg,
				OnResult: func(m float64) { results <- m },
			})
			probe := v2Probe(t, s, 11)
			probe.SetWire(tc.client)
			probe.SetMetrics(reg)

			const want = 20.0
			if err := probe.SetRate(want); err != nil {
				t.Fatal(err)
			}
			if ver := probe.NegotiatedVersion(); ver != 2 {
				t.Fatalf("negotiated version = %d, want 2", ver)
			}
			probe.mu.Lock()
			segmented := probe.sessions[0].caps&wire.CapSegmented != 0
			probe.mu.Unlock()
			if segmented != s.gso {
				t.Errorf("session CapSegmented = %v, server sends super-packets = %v", segmented, s.gso)
			}
			probe.NextSample()
			probe.NextSample()
			var sum float64
			const n = 10
			for i := 0; i < n; i++ {
				v, ok := probe.NextSample()
				if !ok {
					t.Fatal("sample stream ended")
				}
				sum += v
			}
			if got := sum / n; math.Abs(got-want)/want > 0.25 {
				t.Errorf("v2 paced throughput = %.1f Mbps, want ≈%.0f", got, want)
			}
			// Half a second of samples spans several 100 ms report
			// intervals; the loss view must have a baseline by now.
			var reported bool
			probe.mu.Lock()
			for _, sess := range probe.sessions {
				if sess.repBytes.Load() > 0 {
					reported = true
				}
			}
			probe.mu.Unlock()
			if !reported {
				t.Error("no server Report arrived on the control channel")
			}
			if loss := probe.ReportedLoss(); loss < 0 || loss >= 1 {
				t.Errorf("reported loss = %g, want [0, 1)", loss)
			}

			probe.SetFinalReport(estimate.Estimates{
				CrossingMbps: 21, TrimmedMeanMbps: 20, SustainedPeakMbps: 22, P90P80Mbps: 21,
			}, estimate.RegimeStable)
			probe.Finish(21.5, 600*time.Millisecond)
			// Finish waits for the receive loops, so the counters are final.
			recvs := reg.Counter("swiftest_client_data_receives_total", "").Value()
			coalesced := reg.Counter("swiftest_client_data_receives_coalesced_total", "").Value()
			if recvs == 0 || coalesced > recvs {
				t.Errorf("%d receives, %d coalesced: want some receives, at most all coalesced", recvs, coalesced)
			}
			if (tc.server == WireFallback || tc.client == WireFallback) && coalesced != 0 {
				t.Errorf("%d receives coalesced without offload on both ends, want 0", coalesced)
			}
			select {
			case got := <-results:
				if math.Abs(got-21.5) > 0.01 {
					t.Errorf("Bye result = %g, want 21.5", got)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("server never received the Bye result")
			}
			deadline := time.Now().Add(2 * time.Second)
			for s.ActiveSessions() != 0 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := s.ActiveSessions(); n != 0 {
				t.Errorf("active sessions = %d after Bye, want 0", n)
			}
			if got := reg.Counter("swiftest_server_sessions_started_total", "").Value(); got != 1 {
				t.Errorf("sessions started counter = %d, want 1", got)
			}
		})
	}
}

// TestV2AuthRejection locks the server with a fleet key: an unauthenticated
// Setup is refused — observable in both the client error chain and the
// server's auth-reject counter — while a client holding a minted token is
// admitted.
func TestV2AuthRejection(t *testing.T) {
	const key = 0xfeedface12345678
	reg := obs.NewRegistry()
	s := startServer(t, ServerConfig{UplinkMbps: 100, AuthKey: key, Metrics: reg})

	// No token: refused, and the refusal is not retried into oblivion.
	probe := v2Probe(t, s, 14)
	err := probe.SetRate(10)
	probe.Finish(0, 0)
	if err == nil {
		t.Fatal("unauthenticated SetRate succeeded against a keyed server")
	}
	if !errors.Is(err, errdefs.ErrAuthRejected) {
		t.Errorf("error = %v, want errdefs.ErrAuthRejected in the chain", err)
	}
	if got := reg.Counter("swiftest_server_auth_rejects_total", "").Value(); got == 0 {
		t.Error("auth-reject counter did not move")
	}

	// Minted token: admitted.
	okProbe := v2Probe(t, s, 15)
	okProbe.SetToken(wire.MintToken(key, 7, 42, 0))
	if err := okProbe.SetRate(10); err != nil {
		t.Fatalf("authenticated SetRate: %v", err)
	}
	okProbe.NextSample()
	if v, ok := okProbe.NextSample(); !ok || v <= 0 {
		t.Errorf("authenticated session sample = (%.1f, %v), want traffic", v, ok)
	}
	okProbe.Finish(0, 0)

	// A forged token (wrong key) is refused like a missing one.
	forged := v2Probe(t, s, 16)
	forged.SetToken(wire.MintToken(key^1, 7, 42, 0))
	err = forged.SetRate(10)
	forged.Finish(0, 0)
	if !errors.Is(err, errdefs.ErrAuthRejected) {
		t.Errorf("forged-token error = %v, want errdefs.ErrAuthRejected", err)
	}
}

// TestV2TokenExpiry is the lease-deadline round trip: a token whose expiry
// already passed is rejected at setup exactly like a forged one, a token
// whose deadline is still ahead is admitted, and the client cannot stretch
// a stale deadline because the MAC covers it.
func TestV2TokenExpiry(t *testing.T) {
	const key = 0xfeedface87654321
	reg := obs.NewRegistry()
	s := startServer(t, ServerConfig{UplinkMbps: 100, AuthKey: key, Metrics: reg})
	nowMS := uint64(time.Now().UnixMilli())

	// Expired a minute ago: RejectAuth, counted.
	stale := v2Probe(t, s, 24)
	stale.SetToken(wire.MintToken(key, 7, 42, nowMS-60_000))
	err := stale.SetRate(10)
	stale.Finish(0, 0)
	if !errors.Is(err, errdefs.ErrAuthRejected) {
		t.Fatalf("stale-token error = %v, want errdefs.ErrAuthRejected", err)
	}
	if got := reg.Counter("swiftest_server_auth_rejects_total", "").Value(); got == 0 {
		t.Error("auth-reject counter did not move on an expired token")
	}

	// Same stale token with the deadline rewritten forward: the MAC no
	// longer verifies, so the stretch buys nothing.
	stretched := wire.MintToken(key, 7, 42, nowMS-60_000)
	stretched.Expires = nowMS + 3_600_000
	cheat := v2Probe(t, s, 25)
	cheat.SetToken(stretched)
	err = cheat.SetRate(10)
	cheat.Finish(0, 0)
	if !errors.Is(err, errdefs.ErrAuthRejected) {
		t.Errorf("stretched-token error = %v, want errdefs.ErrAuthRejected", err)
	}

	// An hour of validity left: admitted and served.
	fresh := v2Probe(t, s, 26)
	fresh.SetToken(wire.MintToken(key, 7, 42, nowMS+3_600_000))
	if err := fresh.SetRate(10); err != nil {
		t.Fatalf("fresh-token SetRate: %v", err)
	}
	fresh.NextSample()
	if v, ok := fresh.NextSample(); !ok || v <= 0 {
		t.Errorf("fresh-token session sample = (%.1f, %v), want traffic", v, ok)
	}
	fresh.Finish(0, 0)
}

// TestSilentHelloTimesOut: a peer that never answers the Hello costs the
// full handshake budget, like every other handshake step, and fails with
// ErrProbeTimeout rather than any protocol downgrade.
func TestSilentHelloTimesOut(t *testing.T) {
	silent, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	pool := &ServerPool{Servers: []PoolServer{{Addr: silent.LocalAddr().String(), UplinkMbps: 100}}}
	probe, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(19)))
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Finish(0, 0)
	err = probe.SetRate(10)
	if !errors.Is(err, errdefs.ErrProbeTimeout) {
		t.Fatalf("SetRate against a silent peer: err = %v, want ErrProbeTimeout", err)
	}
	hellos := 0
	buf := make([]byte, 256)
	_ = silent.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	for {
		n, _, err := silent.ReadFromUDP(buf)
		if err != nil {
			break
		}
		var h wire.Hello
		if h.Decode(buf[:n]) == nil {
			hellos++
		}
	}
	if hellos != handshakeAttempts {
		t.Errorf("Hellos sent = %d, want the full budget of %d", hellos, handshakeAttempts)
	}
}

// TestV1FrameCreatesNoSession: a frame shaped like the retired
// single-socket session request (version byte 1, type 3) opens no session
// and draws no reply, on an open and on a keyed server alike — no client
// reaches the pacer without the Setup that lease auth guards. Pings, the
// other version-1 frame, are still answered.
func TestV1FrameCreatesNoSession(t *testing.T) {
	for _, key := range []uint64{0, 0xabc} {
		reg := obs.NewRegistry()
		s := startServer(t, ServerConfig{UplinkMbps: 100, AuthKey: key, Metrics: reg})
		conn, err := net.DialUDP("udp", nil, s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// magic, version 1, type 3, then a test ID and a 10 Mbps rate.
		req := []byte{0x57, 0x54, 1, 3, 0, 0, 0, 0, 0, 0, 0, 42, 0, 0, 0x27, 0x10}
		for i := 0; i < 3; i++ {
			if _, err := conn.Write(req); err != nil {
				t.Fatal(err)
			}
		}
		_ = conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		if n, err := conn.Read(make([]byte, 2048)); err == nil {
			t.Errorf("key %#x: version-1 session request drew a %d-byte reply", key, n)
		}
		if n := s.ActiveSessions(); n != 0 {
			t.Errorf("key %#x: %d sessions after version-1 session requests, want 0", key, n)
		}
		if got := reg.Counter("swiftest_server_sessions_started_total", "").Value(); got != 0 {
			t.Errorf("key %#x: sessions started = %d, want 0", key, got)
		}
		if _, err := PingServerContext(context.Background(), s.Addr().String(), 1, time.Second); err != nil {
			t.Errorf("key %#x: ping after version-1 frames: %v", key, err)
		}
	}
}

// TestServerMapsDrain pins that the handshake bookkeeping cannot grow
// without bound: Hellos that never reach a Setup expire on the wheel's idle
// sweep, and sessions that run to their Bye leave neither Hello state nor
// fault-draw attempt counts behind.
func TestServerMapsDrain(t *testing.T) {
	const n = 8
	mapSizes := func(s *Server) (hellos, attempts int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.helloCaps), len(s.hsAttempts)
	}

	// Hellos from n distinct sockets, no Setup.
	idle := 300 * time.Millisecond
	s, err := newServer("127.0.0.1:0", ServerConfig{UplinkMbps: 100, IdleTimeout: idle}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < n; i++ {
		conn, err := net.DialUDP("udp", nil, s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello := wire.Hello{MinVersion: wire.Version2, MaxVersion: wire.Version2, Nonce: uint64(i)}
		if _, err := conn.Write(hello.AppendTo(nil)); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := conn.Read(make([]byte, 256)); err != nil {
			t.Fatalf("hello %d unanswered: %v", i, err)
		}
	}
	if hellos, _ := mapSizes(s); hellos != n {
		t.Fatalf("Hello entries = %d, want %d", hellos, n)
	}
	s.advance(time.Now())
	if hellos, _ := mapSizes(s); hellos != n {
		t.Fatalf("Hello entries = %d before the idle timeout, want %d", hellos, n)
	}
	s.advance(time.Now().Add(idle + time.Millisecond))
	if hellos, _ := mapSizes(s); hellos != 0 {
		t.Errorf("Hello entries = %d after an advance past the idle timeout, want 0", hellos)
	}

	// n full sessions on a fault-injecting server, each run to its Bye.
	plan := &faults.Plan{Faults: []faults.Fault{{Kind: faults.Blackout, Server: 0, AtMS: 3_600_000}}}
	fs := startServer(t, ServerConfig{UplinkMbps: 100, Faults: &faults.Binding{Inj: plan.Injector()}})
	for i := 0; i < n; i++ {
		probe := v2Probe(t, fs, int64(40+i))
		if err := probe.SetRate(1); err != nil {
			t.Fatal(err)
		}
		probe.Finish(1, time.Second)
	}
	deadline := time.Now().Add(2 * time.Second)
	for fs.ActiveSessions() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if hellos, attempts := mapSizes(fs); fs.ActiveSessions() != 0 || hellos != 0 || attempts != 0 {
		t.Errorf("after %d Byes: sessions %d, Hello entries %d, attempt counts %d; want all 0",
			n, fs.ActiveSessions(), hellos, attempts)
	}
}

// TestDataOpenWrongNonceIgnored: a DataOpen that names a live session but
// not its Hello nonce draws no reply and leaves the data channel where the
// client bound it, so learning a session ID is not enough to redirect the
// probe stream. The same socket repeating the right nonce does rebind: the
// check is the nonce, not the source address.
func TestDataOpenWrongNonceIgnored(t *testing.T) {
	s := startServer(t, ServerConfig{UplinkMbps: 100})
	ts := openSession(t, s, 77, 0, wire.Token{}) // openSession's nonce is the session ID
	s.mu.Lock()
	sess := s.byID[ts.id]
	s.mu.Unlock()
	bound := sess.peer.Load()
	if bound == nil || bound.Port != ts.data.LocalAddr().(*net.UDPAddr).Port {
		t.Fatalf("data channel bound to %v, want the session's data socket", bound)
	}

	intruder, err := net.DialUDP("udp", nil, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer intruder.Close()
	// awaitPong sends a Ping behind the frames already written and reads
	// until its Pong: the single read loop has then handled them all. It
	// reports whether a DataOpenAck for the session arrived first.
	awaitPong := func(seq uint32) (acked bool) {
		t.Helper()
		ping := wire.Ping{Seq: seq}
		if _, err := intruder.Write(ping.AppendTo(nil)); err != nil {
			t.Fatal(err)
		}
		_ = intruder.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 2048)
		for {
			n, err := intruder.Read(buf)
			if err != nil {
				t.Fatalf("no pong: %v", err)
			}
			var ack wire.DataOpenAck
			if ack.Decode(buf[:n]) == nil && ack.SessionID == ts.id {
				acked = true
			}
			var pong wire.Pong
			if pong.Decode(buf[:n]) == nil && pong.Seq == seq {
				return acked
			}
		}
	}

	for _, nonce := range []uint64{0, ts.id + 1, ^ts.id} {
		bad := wire.DataOpen{SessionID: ts.id, Nonce: nonce}
		if _, err := intruder.Write(bad.AppendTo(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if awaitPong(1) {
		t.Error("a DataOpen with the wrong nonce was acknowledged")
	}
	if got := sess.peer.Load(); got != bound {
		t.Fatalf("wrong-nonce DataOpen rebound the data channel to %v", got)
	}

	good := wire.DataOpen{SessionID: ts.id, Nonce: ts.id}
	if _, err := intruder.Write(good.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if !awaitPong(2) {
		t.Error("a DataOpen with the session's nonce was not acknowledged")
	}
	if got := sess.peer.Load(); got.Port != intruder.LocalAddr().(*net.UDPAddr).Port {
		t.Errorf("matching DataOpen left the data channel at %v", got)
	}
}

// TestHelloNonceNotDerivable: two probes built from the same seed open the
// same session ID but send different, non-zero Hello nonces, and neither
// nonce is the test ID masking the Hello's clock reading. So the nonce a
// DataOpen must repeat cannot be worked out from the session ID (which
// every data and control frame carries in clear), the probe's seed or the
// time of the handshake.
func TestHelloNonceNotDerivable(t *testing.T) {
	open := func() (sid, nonce uint64) {
		t.Helper()
		s := startServer(t, ServerConfig{UplinkMbps: 100})
		probe := v2Probe(t, s, 42)
		if err := probe.SetRate(1); err != nil {
			t.Fatal(err)
		}
		defer probe.Finish(1, time.Second)
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.byID) != 1 {
			t.Fatalf("%d sessions open, want 1", len(s.byID))
		}
		for id, sess := range s.byID {
			sid, nonce = id, sess.nonce
		}
		if d := time.Duration(int64(nonce^probe.TestID()) - time.Now().UnixNano()); d > -time.Minute && d < time.Minute {
			t.Errorf("nonce %d is the test ID masking a clock reading %v from now", nonce, d)
		}
		return sid, nonce
	}
	sid1, nonce1 := open()
	sid2, nonce2 := open()
	if sid1 != sid2 {
		t.Fatalf("same seed opened sessions %d and %d, want one ID", sid1, sid2)
	}
	if nonce1 == 0 || nonce2 == 0 {
		t.Fatalf("Hello nonces %d, %d: want non-zero", nonce1, nonce2)
	}
	if nonce1 == nonce2 {
		t.Errorf("two probes with seed 42 sent the same Hello nonce %d", nonce1)
	}
}

// TestClientRecvPoolReused: session receive buffers come from one
// process-wide pool and go back to it when the session ends, so a second
// probe run after the first allocates no new receive buffers.
func TestClientRecvPoolReused(t *testing.T) {
	s := startServer(t, ServerConfig{UplinkMbps: 100})
	run := func(seed int64) {
		t.Helper()
		probe := v2Probe(t, s, seed)
		if err := probe.SetRate(5); err != nil {
			t.Fatal(err)
		}
		if _, ok := probe.NextSample(); !ok {
			t.Fatal("sample stream ended")
		}
		probe.Finish(5, time.Second)
	}
	run(60)
	grown := clientRecvPool.grown.Load()
	if grown == 0 {
		t.Fatal("the first probe took no buffers from the pool")
	}
	run(61)
	if got := clientRecvPool.grown.Load(); got != grown {
		t.Errorf("receive pool grew from %d to %d buffers on the second probe", grown, got)
	}
}
