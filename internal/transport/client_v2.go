package transport

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/errdefs"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// Client session: the control/data channel split.
//
// The client opens two sockets per server — a control socket for the
// handshake, rate updates, server Reports and the final Bye, and a data
// socket that receives nothing but paced probe datagrams. Splitting them
// means a probe flood can never queue a rate update or a Report behind
// megabytes of buffered data under deep downstream buffers.

// Protocol names the wire generation a probe speaks. The client and server
// speak exactly one generation, so ProtoAuto is the only value.
type Protocol uint8

// ProtoAuto is the one wire generation: the two-channel session protocol.
const ProtoAuto Protocol = 0

// SetProtocol is a no-op kept for source compatibility: every probe speaks
// the one wire generation ProtoAuto names.
func (p *UDPProbe) SetProtocol(Protocol) {}

// SetToken attaches the dispatcher-lease auth token carried by every
// Setup. Call before the first SetRate; servers running without an auth key
// ignore it.
func (p *UDPProbe) SetToken(t wire.Token) { p.token = t }

// SetFinalReport attaches the estimator family and BDP-regime classification
// the final Bye carries to each server (CapEstimates sessions only). Call
// before Finish; without it the Bye reports the headline figure alone.
func (p *UDPProbe) SetFinalReport(est estimate.Estimates, regime estimate.Regime) {
	p.mu.Lock()
	p.finalEst = est
	p.finalRegime = regime
	p.mu.Unlock()
}

// NegotiatedVersion reports the wire version the probe's sessions
// negotiated: wire.Version2 once any session has opened, 0 before.
func (p *UDPProbe) NegotiatedVersion() uint8 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.sessions) == 0 {
		return 0
	}
	return wire.Version2
}

// ReportedLoss is the delivery-loss fraction observed through the server's
// per-interval Reports, aggregated across sessions: 1 − received/paced
// bytes. It reads 0 until the first Report lands (or when CapReports is
// inactive) — absence of evidence is not loss.
func (p *UDPProbe) ReportedLoss() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sent, rx uint64
	for _, sess := range p.sessions {
		sent += sess.repBytes.Load()
		rx += uint64(sess.rxBytes.Load())
	}
	if sent == 0 || rx >= sent {
		return 0
	}
	return 1 - float64(rx)/float64(sent)
}

// sessionIDStride spreads per-session IDs across the 64-bit space from the
// probe's random test ID (the golden-ratio multiplier, as in Fibonacci
// hashing), so concurrent sessions from one probe never collide on the
// server's ID-keyed table.
const sessionIDStride = 0x9e3779b97f4a7c15

// helloNonce draws a session's Hello nonce from the system's secure random
// source, never 0. The nonce is the secret a DataOpen proves the client
// knows, so it owes nothing to the test ID (which a seeded probe makes
// predictable and the session ID derives from) or to the clock.
func helloNonce() uint64 {
	var b [8]byte
	for {
		_, _ = crand.Read(b[:]) // never fails: since Go 1.24 it crashes the program instead
		if n := binary.LittleEndian.Uint64(b[:]); n != 0 {
			return n
		}
	}
}

// openSessionLocked dials one server: Hello/HelloAck negotiation on a fresh
// control socket, lease-authenticated Setup, then a second data socket bound
// to the session with DataOpen. Each step gets handshakeAttempts sends.
// Callers hold p.mu.
//
// The error wraps errdefs.ErrProbeTimeout when a step went unanswered and
// errdefs.ErrAuthRejected when the server refused the lease token, which no
// retry can fix.
func (p *UDPProbe) openSessionLocked(server PoolServer) (*clientSession, error) {
	fail := func(err error, conns ...*net.UDPConn) (*clientSession, error) {
		for _, c := range conns {
			c.Close()
		}
		return nil, &errdefs.ServerError{Addr: server.Addr, Op: "handshake", Err: err}
	}
	raddr, err := net.ResolveUDPAddr("udp", server.Addr)
	if err != nil {
		return fail(err)
	}
	ctrl, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return fail(err)
	}

	nonce := helloNonce()
	hello := wire.Hello{
		MinVersion: wire.Version2, MaxVersion: wire.Version2,
		Caps: wire.ServerCaps, Nonce: nonce,
	}
	err = p.handshakeStep(server, ctrl, hello.AppendTo(make([]byte, 0, wire.HelloLen)), "hello-ack",
		func(b []byte) (bool, error) {
			var ack wire.HelloAck
			return ack.Decode(b) == nil && ack.Nonce == nonce && ack.Version == wire.Version2, nil
		})
	if err != nil {
		return fail(err, ctrl)
	}

	// Session setup under the lease token. An explicit SetupReject
	// short-circuits the retry budget — policy refusals don't melt away.
	sid := p.testID ^ (uint64(p.used)+1)*sessionIDStride
	setup := wire.Setup{SessionID: sid, RateKbps: 0, Token: p.token}
	var sack wire.SetupAck
	err = p.handshakeStep(server, ctrl, setup.AppendTo(make([]byte, 0, wire.SetupLen)), "setup-ack",
		func(b []byte) (bool, error) {
			var rej wire.SetupReject
			if rej.Decode(b) == nil && rej.SessionID == sid {
				if rej.Code == wire.RejectAuth {
					return false, errdefs.ErrAuthRejected
				}
				return false, fmt.Errorf("setup rejected (code %d)", rej.Code)
			}
			return sack.Decode(b) == nil && sack.SessionID == sid, nil
		})
	if err != nil {
		return fail(err, ctrl)
	}

	// Data channel: a second socket, bound to the session by DataOpen so
	// the server learns where to pace.
	data, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return fail(err, ctrl)
	}
	if err := data.SetReadBuffer(4 << 20); err != nil {
		// Non-fatal: the default buffer just loses more under burst.
		_ = err
	}
	do := wire.DataOpen{SessionID: sid, Nonce: nonce}
	err = p.handshakeStep(server, data, do.AppendTo(make([]byte, 0, wire.DataOpenLen)), "data-open-ack",
		func(b []byte) (bool, error) {
			var doa wire.DataOpenAck
			return doa.Decode(b) == nil && doa.SessionID == sid, nil
		})
	if err != nil {
		return fail(err, ctrl, data)
	}

	sess := &clientSession{
		conn:     data,
		ctrl:     ctrl,
		server:   server,
		probe:    p,
		id:       sid,
		caps:     sack.Caps,
		done:     make(chan struct{}),
		ctrlDone: make(chan struct{}),
		byeAck:   make(chan struct{}),
		tracker:  faults.NewLostTracker(p.lostAfter),
	}
	p.used++
	p.trace.Record(p.Elapsed(), obs.EventServerAdd, float64(wire.Version2), server.UplinkMbps, server.Addr)
	go sess.receiveLoop()
	go sess.ctrlLoop()
	return sess, nil
}

// handshakeStep sends req on conn up to handshakeAttempts times, waiting
// handshakeTimeout after each send for a reply that match accepts. match
// reports true once the awaited reply arrived, or an error to abort the
// handshake on an explicit refusal. Cancellation of the probe's context
// aborts between attempts. Resends count as handshake retries.
func (p *UDPProbe) handshakeStep(server PoolServer, conn *net.UDPConn, req []byte, awaited string,
	match func([]byte) (bool, error)) error {
	buf := make([]byte, 2048)
	for attempt := 0; attempt < handshakeAttempts; attempt++ {
		if err := p.ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", errdefs.ErrTestAborted, err)
		}
		if attempt > 0 {
			p.retryCounter.Inc()
			p.trace.Record(p.Elapsed(), obs.EventServerRetry, float64(attempt), 0, server.Addr)
		}
		if _, err := conn.Write(req); err != nil {
			return err
		}
		_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
		for {
			n, err := conn.Read(buf)
			if err != nil {
				break
			}
			done, err := match(buf[:n])
			if err != nil {
				return err
			}
			if done {
				_ = conn.SetReadDeadline(time.Time{})
				return nil
			}
		}
	}
	return fmt.Errorf("no %s after %d attempts: %w", awaited, handshakeAttempts, errdefs.ErrProbeTimeout)
}

// ctrlLoop drains the session's control socket: per-interval server Reports
// feed the loss view, the ByeAck releases the teardown. It exits when the
// socket closes — Finish and the lost-session failover both close it.
func (cs *clientSession) ctrlLoop() {
	defer close(cs.ctrlDone)
	buf := make([]byte, 2048)
	for {
		n, err := cs.ctrl.Read(buf)
		if err != nil {
			return
		}
		_, typ, err := wire.PeekVersion(buf[:n])
		if err != nil {
			continue
		}
		switch typ {
		case wire.TypeReport:
			var r wire.Report
			if r.Decode(buf[:n]) != nil || r.SessionID != cs.id {
				continue
			}
			// Cumulative counters: a later report supersedes an earlier one
			// even when UDP reorders them, so keep the high-water mark.
			if r.SentBytes > cs.repBytes.Load() {
				cs.repBytes.Store(r.SentBytes)
				cs.repDgrams.Store(r.SentDatagrams)
			}
		case wire.TypeByeAck:
			var a wire.ByeAck
			if a.Decode(buf[:n]) == nil && a.SessionID == cs.id {
				cs.byeAckOnce.Do(func() { close(cs.byeAck) })
			}
		}
	}
}

// byeAttempts bounds Bye retransmissions during teardown.
const byeAttempts = 3

// sendBye runs the reliable teardown: the Bye carries the headline result
// plus — on CapEstimates sessions — the estimator family and BDP regime, and
// is retransmitted until the ByeAck lands or the budget runs out.
func (p *UDPProbe) sendBye(sess *clientSession, resultMbps float64, duration time.Duration,
	est estimate.Estimates, regime estimate.Regime) {
	bye := wire.Bye{
		SessionID:  sess.id,
		ResultKbps: wire.KbpsFromMbps(resultMbps),
		DurationMS: uint32(duration.Milliseconds()),
	}
	if sess.caps&wire.CapEstimates != 0 {
		bye.CrossingKbps = wire.KbpsFromMbps(est.CrossingMbps)
		bye.TrimmedKbps = wire.KbpsFromMbps(est.TrimmedMeanMbps)
		bye.PeakKbps = wire.KbpsFromMbps(est.SustainedPeakMbps)
		bye.P90P80Kbps = wire.KbpsFromMbps(est.P90P80Mbps)
		bye.Regime = uint8(regime)
	}
	buf := bye.AppendTo(make([]byte, 0, wire.ByeLen))
	for attempt := 0; attempt < byeAttempts; attempt++ {
		if _, err := sess.ctrl.Write(buf); err != nil {
			return
		}
		select {
		case <-sess.byeAck:
			return
		case <-time.After(handshakeTimeout):
		}
	}
}
