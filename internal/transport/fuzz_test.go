package transport

import (
	"net"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// Operations of a FuzzServerPackets script. Each step is three bytes: the
// operation, a selector (peer and session ID), and an argument.
const (
	opHello = iota
	opSetup
	opSetupExpiring
	opSetupForged
	opSetupExpired
	opSetupStretched
	opSetupUntokened
	opDataOpen
	opRate
	opBye
	opPing
	opV1Frame
	opRaw
	opAdvance
	numOps
)

// fuzzKey is the deployment key of the fuzzed server.
const fuzzKey = 0x5eed5eed5eed5eed

// FuzzServerPackets feeds arbitrary frame sequences from several peers into
// a wheel-less keyed server's handlePacket: replayed and colliding Setups,
// DataOpen for session IDs another peer owns, forged, expired and stretched
// tokens, raw bytes, and wheel advances that reap. After every datagram:
//
//   - the session table and the wheel's registration order hold the same
//     sessions, none of them retired;
//   - a session only ever appears on a Setup carrying a verified, unexpired
//     token for that session ID;
//   - a version-1 frame other than Ping creates no state and draws no reply;
//   - a session's nonce is 0 or one its control peer sent in a Hello, and
//     its data-channel peer changes only on a DataOpen that names the
//     session and repeats that nonce.
//
// Run with `go test -fuzz=FuzzServerPackets ./internal/transport/`; the seed
// corpus alone runs as a regular test.
func FuzzServerPackets(f *testing.F) {
	step := func(op, sel, arg byte) []byte { return []byte{op, sel, arg} }
	// script prefixes the steps with the configuration byte: odd selects a
	// fault-injecting server that drops half the Setups.
	script := func(config byte, steps ...[]byte) []byte {
		out := []byte{config}
		for _, s := range steps {
			out = append(out, s...)
		}
		return out
	}
	// A clean handshake (the DataOpen from peer 1 repeats the Hello nonce,
	// 1), a DataOpen with the wrong nonce from peer 2, a rate change and a
	// Bye from peer 0 for session 1.
	f.Add(script(0, step(opHello, 0, 0x22), step(opSetup, 0, 0), step(opDataOpen, 1, 1),
		step(opDataOpen, 2, 9), step(opRate, 0, 20), step(opAdvance, 0, 1), step(opBye, 0, 0)))
	// The same session replayed from another peer, then its data channel
	// claimed by a third.
	f.Add(script(0, step(opSetup, 0, 0), step(opSetup, 1, 0), step(opSetupExpiring, 0, 0),
		step(opDataOpen, 2, 0), step(opRate, 3, 90)))
	// Every refused token shape, then version-1 frames: a bare session
	// request, and one whose 3-byte body is the next step's bytes.
	f.Add(script(0, step(opSetupForged, 4, 0), step(opSetupExpired, 4, 0), step(opSetupStretched, 4, 0),
		step(opSetupUntokened, 4, 0), step(opV1Frame, 0, 64), step(opV1Frame, 1, 3), step(opSetup, 0, 0)))
	// Hellos that never reach a Setup, swept by a late advance; a session
	// reaped by the same advance.
	f.Add(script(0, step(opHello, 0, 0x22), step(opHello, 1, 0x22), step(opSetup, 6, 10),
		step(opAdvance, 0, 200), step(opPing, 2, 0), step(opRaw, 1, 3), step(0x57, 0x54, 2)))
	// A fault-injecting server: dropped Setups leave attempt counts that the
	// Bye must clear.
	f.Add(script(1, step(opSetup, 0, 0), step(opSetup, 0, 0), step(opSetup, 0, 0), step(opBye, 0, 0)))

	// Replies go to sockets the fuzzer owns, never to someone else's port.
	peers := make([]*net.UDPAddr, 4)
	for i := range peers {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { c.Close() })
		peers[i] = c.LocalAddr().(*net.UDPAddr)
	}

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		cfg := ServerConfig{UplinkMbps: 100, AuthKey: fuzzKey, IdleTimeout: time.Second}
		if script[0]&1 == 1 {
			plan := &faults.Plan{Seed: 3, Faults: []faults.Fault{
				{Kind: faults.HandshakeDrop, Server: 0, DurationMS: 3_600_000, Prob: 0.5},
			}}
			cfg.Faults = &faults.Binding{Inj: plan.Injector()}
		}
		script = script[1:]
		s, err := newServer("127.0.0.1:0", cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		now := time.Now()
		nowMS := uint64(now.UnixMilli())
		var out []byte
		// helloNonces holds every nonce each peer sent in a Hello.
		helloNonces := make([]map[uint64]bool, len(peers))
		for i := range helloNonces {
			helloNonces[i] = map[uint64]bool{}
		}
		for len(script) >= 3 {
			op, sel, arg := script[0]%numOps, script[1], script[2]
			script = script[3:]
			peerIdx := int(sel) % len(peers)
			peer := peers[peerIdx]
			// Four session IDs shared by every peer: replays, collisions
			// and spoofed data channels all happen.
			sid := uint64(sel>>2)%4 + 1
			setup := wire.Setup{SessionID: sid, RateKbps: uint32(arg) * 1000}

			var pkt []byte
			admits := false
			switch op {
			case opHello:
				h := wire.Hello{MinVersion: arg >> 4, MaxVersion: arg & 0xf, Caps: uint32(arg), Nonce: sid}
				pkt = h.AppendTo(nil)
				helloNonces[peerIdx][sid] = true
			case opSetup:
				setup.Token = wire.MintToken(fuzzKey, 1, sid, 0)
				admits = true
			case opSetupExpiring:
				setup.Token = wire.MintToken(fuzzKey, 1, sid, nowMS+3_600_000)
				admits = true
			case opSetupForged:
				setup.Token = wire.MintToken(fuzzKey^(uint64(arg)+1), 1, sid, 0)
			case opSetupExpired:
				setup.Token = wire.MintToken(fuzzKey, 1, sid, nowMS-60_000)
			case opSetupStretched:
				setup.Token = wire.MintToken(fuzzKey, 1, sid, nowMS-60_000)
				setup.Token.Expires = nowMS + 3_600_000
			case opSetupUntokened:
			case opDataOpen:
				do := wire.DataOpen{SessionID: sid, Nonce: uint64(arg)}
				pkt = do.AppendTo(nil)
			case opRate:
				r := wire.Rate2{SessionID: sid, RateKbps: uint32(arg) * 1000, Seq: uint32(arg)}
				pkt = r.AppendTo(nil)
			case opBye:
				bye := wire.Bye{SessionID: sid, ResultKbps: uint32(arg) * 1000}
				pkt = bye.AppendTo(nil)
			case opPing:
				ping := wire.Ping{Seq: uint32(arg)}
				pkt = ping.AppendTo(nil)
			case opV1Frame, opRaw:
				n := int(arg) % 32
				if n > len(script) {
					n = len(script)
				}
				if op == opV1Frame {
					typ := arg
					if wire.Type(typ) == wire.TypePing {
						typ = 3
					}
					pkt = append([]byte{0x57, 0x54, wire.Version, typ}, script[:n]...)
				} else {
					pkt = append([]byte(nil), script[:n]...)
				}
				script = script[n:]
			case opAdvance:
				s.advance(now.Add(time.Duration(arg) * 10 * time.Millisecond))
				checkServerTables(t, s)
				continue
			}
			if pkt == nil {
				pkt = setup.AppendTo(nil)
			}

			before := liveSessions(s)
			bound := make(map[*session]*net.UDPAddr, len(before))
			for sess := range before {
				bound[sess] = sess.peer.Load()
			}
			s.mu.Lock()
			hellos, attempts := len(s.helloCaps), len(s.hsAttempts)
			s.mu.Unlock()

			out = s.handlePacket(pkt, peer, out)

			checkServerTables(t, s)
			for sess := range liveSessions(s) {
				if !before[sess] && (!admits || sess.id != sid) {
					t.Fatalf("op %d created session %d without a verified, unexpired token", op, sess.id)
				}
				if !before[sess] && sess.nonce != 0 && !helloNonces[peerIdx][sess.nonce] {
					t.Fatalf("session %d took nonce %d, which its peer never sent in a Hello", sess.id, sess.nonce)
				}
				if before[sess] && sess.peer.Load() != bound[sess] &&
					(op != opDataOpen || sess.id != sid || uint64(arg) != sess.nonce) {
					t.Fatalf("op %d (nonce %d) rebound session %d, whose nonce is %d", op, arg, sess.id, sess.nonce)
				}
			}
			if ver, typ, err := wire.PeekVersion(pkt); err == nil && ver == wire.Version && typ != wire.TypePing {
				after := liveSessions(s)
				s.mu.Lock()
				grew := len(s.helloCaps) != hellos || len(s.hsAttempts) != attempts
				s.mu.Unlock()
				if len(out) > 0 || grew || len(after) != len(before) {
					t.Fatalf("version-1 frame %x changed state or drew a %d-byte reply", pkt, len(out))
				}
			}
		}
	})
}

// liveSessions snapshots the sessions registered with the wheel.
func liveSessions(s *Server) map[*session]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[*session]bool, len(s.order))
	for _, sess := range s.order {
		out[sess] = true
	}
	return out
}

// checkServerTables asserts that the session table and the wheel's
// registration order hold exactly the same live sessions.
func checkServerTables(t *testing.T, s *Server) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.byID) != len(s.order) {
		t.Fatalf("%d sessions by ID, %d in wheel order", len(s.byID), len(s.order))
	}
	for _, sess := range s.order {
		if s.byID[sess.id] != sess {
			t.Fatalf("session %d in wheel order but not the table", sess.id)
		}
		if sess.retired.Load() {
			t.Fatalf("retired session %d still registered", sess.id)
		}
	}
}
