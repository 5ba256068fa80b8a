package transport

import (
	"net"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// Server side of a session: the control/data channel split.
//
// Both channels arrive on the one server socket — the split is on the
// client, which uses two sockets so probe floods never queue behind control
// traffic. The server tells them apart by session ID: Setup registers the
// session under the control-channel address, DataOpen (sent from the
// client's data socket, hence a different source port) binds the pacing
// destination. Until DataOpen lands the wheel paces nothing for the
// session. DataOpen must repeat the nonce of the Hello that preceded the
// session's Setup. The client draws that nonce from a secure random
// source, independent of the session ID, so an off-path party who knows
// the ID (every data and control frame carries it in clear) cannot redirect
// the probe stream. The nonce itself travels in clear in the Hello and the
// DataOpen: an observer on the path can still replay it.

// handlePacket dispatches one inbound datagram and returns the reply it
// sent, empty when it sent none. peer points into reused batch storage:
// handlers that keep it clone it. out is the reply scratch buffer, returned
// so the read loop can keep reusing it.
//
// Every decoder checks the version byte, so only a version-1 Ping and
// version-2 session frames get past it: any other frame creates no state
// and draws no reply.
func (s *Server) handlePacket(pkt []byte, peer *net.UDPAddr, out []byte) []byte {
	out = out[:0]
	_, typ, err := wire.PeekVersion(pkt)
	if err != nil {
		return out // not ours; drop silently
	}
	if s.cfg.Faults.Blackout(s.elapsed()) {
		// A blacked-out server is dead to the world: every inbound
		// datagram vanishes, exactly like a crashed process.
		s.metrics.faultsInjected.Inc()
		return out
	}
	switch typ {
	case wire.TypePing:
		var ping wire.Ping
		if ping.Decode(pkt) != nil {
			return out
		}
		s.metrics.pings.Inc()
		pong := wire.Pong{Seq: ping.Seq, EchoNS: ping.SentNS}
		out = pong.AppendTo(out)
		s.sendPong(out, peer)

	case wire.TypeHello:
		var h wire.Hello
		if h.Decode(pkt) != nil {
			return out
		}
		if h.MinVersion > wire.Version2 || h.MaxVersion < wire.Version2 {
			return out // no common version; the client gives up
		}
		caps := h.Caps & s.caps
		s.mu.Lock()
		s.helloCaps[peer.String()] = helloCaps{caps: caps, nonce: h.Nonce, seen: time.Now().UnixNano()}
		s.mu.Unlock()
		ack := wire.HelloAck{Version: wire.Version2, Caps: caps, Nonce: h.Nonce}
		out = ack.AppendTo(out)
		s.sendControl(out, peer)

	case wire.TypeSetup:
		var setup wire.Setup
		if setup.Decode(pkt) != nil {
			return out
		}
		if s.dropHandshake(setup.SessionID) {
			s.metrics.faultsInjected.Inc()
			return out
		}
		if s.cfg.AuthKey != 0 {
			// Forged and stale tokens share the RejectAuth path: the MAC
			// covers the expiry deadline, so a client cannot stretch a lease
			// by rewriting it.
			expired := setup.Token.ExpiredAt(uint64(time.Now().UnixMilli()))
			if !setup.Token.Verify(s.cfg.AuthKey) || expired {
				s.metrics.authRejects.Inc()
				s.logf("session auth rejected", "peer", peer.String(),
					"session_id", setup.SessionID, "expired", expired)
				rej := wire.SetupReject{SessionID: setup.SessionID, Code: wire.RejectAuth}
				out = rej.AppendTo(out)
				s.sendControl(out, peer)
				return out
			}
		}
		sess := s.handleSetup(&setup, peer)
		if sess == nil {
			rej := wire.SetupReject{SessionID: setup.SessionID, Code: wire.RejectBusy}
			out = rej.AppendTo(out)
			s.sendControl(out, peer)
			return out
		}
		ack := wire.SetupAck{
			SessionID:        setup.SessionID,
			Caps:             sess.caps,
			ReportIntervalMS: uint32(reportInterval.Milliseconds()),
		}
		out = ack.AppendTo(out)
		s.sendControl(out, peer)

	case wire.TypeDataOpen:
		var do wire.DataOpen
		if do.Decode(pkt) != nil {
			return out
		}
		s.mu.Lock()
		sess := s.byID[do.SessionID]
		s.mu.Unlock()
		if sess == nil {
			return out // no such session; the client's setup never landed
		}
		if do.Nonce != sess.nonce {
			return out // not the client that said Hello: no reply, no rebind
		}
		// Re-binds are idempotent (DataOpen retransmits) and also cover a
		// client whose NAT rebound the data socket mid-handshake.
		sess.peer.Store(cloneUDPAddr(peer))
		sess.lastSeen.Store(time.Now().UnixNano())
		ack := wire.DataOpenAck{SessionID: do.SessionID}
		out = ack.AppendTo(out)
		s.sendControl(out, peer)

	case wire.TypeRate2:
		var r wire.Rate2
		if r.Decode(pkt) != nil {
			return out
		}
		s.mu.Lock()
		sess := s.byID[r.SessionID]
		s.mu.Unlock()
		if sess != nil {
			s.applyRate(sess, r.RateKbps, r.Seq)
		}

	case wire.TypeBye:
		var bye wire.Bye
		if bye.Decode(pkt) != nil {
			return out
		}
		s.handleBye(&bye, peer)
		// Always ack, even for an unknown or already-retired session — the
		// client may be retransmitting a Bye whose first ack was lost.
		ack := wire.ByeAck{SessionID: bye.SessionID}
		out = ack.AppendTo(out)
		s.sendControl(out, peer)
	}
	return out
}

// handleSetup registers a session and returns it: created now, or the
// existing one for a duplicate Setup from the same control address. It
// returns nil on a session-ID collision with another client. The session
// takes the capability set and nonce its sender's Hello negotiated — the
// full server set and nonce 0 when the Hello was lost or skipped — and the
// Hello state is released.
func (s *Server) handleSetup(setup *wire.Setup, peer *net.UDPAddr) *session {
	addr := peer.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing := s.byID[setup.SessionID]; existing != nil {
		if existing.ctrlPeer.String() != addr {
			return nil // foreign ID
		}
		return existing // duplicate Setup, re-acked
	}
	h, ok := s.helloCaps[addr]
	if ok {
		delete(s.helloCaps, addr)
	} else {
		h.caps = s.caps
	}
	sess := &session{
		id:       setup.SessionID,
		caps:     h.caps,
		nonce:    h.nonce,
		ctrlPeer: cloneUDPAddr(peer),
	}
	granted := s.clampRateLocked(setup.RateKbps, nil)
	if granted < setup.RateKbps {
		s.metrics.rateClamped.Inc()
	}
	sess.rateKbps.Store(granted)
	sess.lastSeen.Store(time.Now().UnixNano())
	s.byID[setup.SessionID] = sess
	s.order = append(s.order, sess)
	s.metrics.sessionsStarted.Inc()
	s.metrics.sessionsActive.Inc()
	s.updatePacedGaugeLocked()
	s.logf("test started", "peer", addr, "session_id", setup.SessionID,
		"rate_mbps", wire.MbpsFromKbps(setup.RateKbps))
	return sess
}

// handleBye retires the session a Bye names and delivers its result. An
// unknown or already-retired session is ignored: a retransmitted Bye, or a
// reap or Close that got there first.
func (s *Server) handleBye(bye *wire.Bye, peer *net.UDPAddr) {
	s.mu.Lock()
	sess := s.byID[bye.SessionID]
	s.mu.Unlock()
	if sess == nil || !s.retire(sess) {
		return
	}
	s.metrics.sessionsFinished.Inc()
	s.metrics.resultMbps.Observe(wire.MbpsFromKbps(bye.ResultKbps))
	if s.cfg.OnResult != nil {
		s.cfg.OnResult(wire.MbpsFromKbps(bye.ResultKbps))
	}
	s.logf("test finished", "peer", peer.String(), "session_id", bye.SessionID,
		"result_mbps", wire.MbpsFromKbps(bye.ResultKbps),
		"trimmed_mbps", wire.MbpsFromKbps(bye.TrimmedKbps),
		"peak_mbps", wire.MbpsFromKbps(bye.PeakKbps),
		"regime", bye.Regime)
}

// applyRate applies one rate update to a session with the stale-rejection
// and uplink-clamp rules.
func (s *Server) applyRate(sess *session, kbps, seq uint32) {
	s.mu.Lock()
	clamped := s.clampRateLocked(kbps, sess)
	s.mu.Unlock()
	// Ignore stale (reordered) rate updates.
	for {
		cur := sess.rateSeq.Load()
		if seq <= cur && cur != 0 {
			return
		}
		if sess.rateSeq.CompareAndSwap(cur, seq) {
			break
		}
	}
	if clamped < kbps {
		s.metrics.rateClamped.Inc()
	}
	sess.rateKbps.Store(clamped)
	sess.lastSeen.Store(time.Now().UnixNano())
	s.mu.Lock()
	s.updatePacedGaugeLocked()
	s.mu.Unlock()
}

// dropHandshake consults the fault plan for one Setup datagram, numbering
// retransmissions per session ID so probabilistic drops re-draw per
// attempt. The count lives until the session retires.
func (s *Server) dropHandshake(sessionID uint64) bool {
	if s.cfg.Faults == nil {
		return false
	}
	s.mu.Lock()
	attempt := s.hsAttempts[sessionID]
	s.hsAttempts[sessionID] = attempt + 1
	s.mu.Unlock()
	return s.cfg.Faults.DropHandshake(s.elapsed(), attempt)
}

// expireHellosLocked drops Hello state older than the idle timeout: Hellos
// whose sender never followed up with a Setup. Callers hold s.mu.
func (s *Server) expireHellosLocked(now time.Time) {
	cutoff := now.UnixNano() - int64(s.cfg.IdleTimeout)
	for addr, h := range s.helloCaps {
		if h.seen < cutoff {
			delete(s.helloCaps, addr)
		}
	}
}
