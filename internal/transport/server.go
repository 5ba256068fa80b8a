// Package transport implements Swiftest's probing protocol over real UDP
// sockets: a test server that paces probe datagrams at a client-controlled
// rate, and a client probe that plugs into the core engine (core.Probe).
//
// This is the deployable counterpart of the virtual-time SimProbe: the same
// engine logic (package core) drives both, so experiments validated on the
// emulator carry over to the wire. The server is intentionally cheap — a
// batched read loop plus one pacing-wheel goroutine shared by every active
// test — matching the paper's point that Swiftest runs on small 100 Mbps
// budget VMs (§5.2/§5.3). The wire hot path is built on package batchio:
// many datagrams per syscall and pooled zero-allocation buffers on both
// ends. On send, the pacing wheel hands the kernel 50-datagram super-buffers
// through sendmmsg and UDP segmentation offload (GSO, UDP_SEGMENT), and the
// server says so with the CapSegmented capability. On receive, a client
// granted it turns on UDP receive offload (GRO, UDP_GRO) for its data
// socket, so each receive can return a whole super-packet, which the
// client splits back into datagrams and decodes one by one. A portable
// one-datagram-per-syscall fallback emits byte-identical traffic and never
// coalesces.
//
//lint:allow walltime deployment-side package paced against real sockets; the virtual-time counterpart is core+linksim
package transport

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/transport/batchio"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// DatagramSize is the probe datagram size (header + padding). Chosen below
// common MTUs to avoid fragmentation.
const DatagramSize = 1200

// paceInterval is the pacing quantum: each interval the wheel emits the
// bytes corresponding to every session's current probing rate.
const paceInterval = 5 * time.Millisecond

// DefaultIdleTimeout reaps sessions whose client vanished without a Bye, and
// Hello state whose client never sent a Setup.
const DefaultIdleTimeout = 10 * time.Second

// recvBatch is how many datagrams the server's read loop accepts per
// syscall on the batched path.
const recvBatch = 16

// WireMode selects the send/receive syscall strategy for a server or probe.
type WireMode int

const (
	// WireAuto uses vectored syscalls and UDP segmentation offload where the
	// platform has them, falling back automatically elsewhere.
	WireAuto WireMode = iota
	// WireFallback forces the portable one-datagram-per-syscall path. The
	// wire traffic is byte-identical to WireAuto — only the syscall count
	// differs — which the batched-vs-fallback property test pins.
	WireFallback
)

// ServerConfig configures a test server.
type ServerConfig struct {
	// UplinkMbps is the server's egress capacity; aggregate pacing across
	// sessions is capped at this rate, mirroring the budget-server pools of
	// §5.2. Zero means 100 Mbps.
	UplinkMbps float64
	// Logger receives operational events; nil disables logging.
	Logger *slog.Logger
	// OnResult, if non-nil, is invoked with each client-reported test
	// result (Mbps) — the feed for periodic bandwidth-model refresh (§5.1).
	OnResult func(mbps float64)
	// IdleTimeout reaps sessions whose client vanished without a Bye; zero
	// selects DefaultIdleTimeout.
	IdleTimeout time.Duration
	// Metrics, when non-nil, receives the server's operational metrics
	// (session lifecycle, pacing, drops, reaps) for Prometheus exposition.
	Metrics *obs.Registry
	// Faults, when non-nil, makes the server act out a fault plan: drop
	// handshakes, fall silent during blackouts, delay or duplicate pongs,
	// lose probe datagrams, clamp pacing. Fault times are elapsed since
	// NewServer. Nil injects nothing; the hooks cost one nil check each.
	Faults *faults.Binding
	// Wire selects the syscall strategy; the zero value (WireAuto) is right
	// for deployments, WireFallback exists for equivalence testing and
	// debugging.
	Wire WireMode
	// AuthKey, when non-zero, requires every session Setup to carry a
	// token minted under this key by the fleet dispatcher (wire.MintToken);
	// setups with absent, forged or expired tokens are rejected with
	// wire.RejectAuth and counted in swiftest_server_auth_rejects_total.
	// Setup is the only way to open a session, so no client is paced
	// without a verified token.
	AuthKey uint64
	// startedAt, when non-zero, pins the server's epoch — the base for
	// fault-plan times and datagram timestamps. Test-only (unexported):
	// scripted wheel schedules set it before the read loop starts so the
	// override never races a live packet.
	startedAt time.Time
}

// Server is a Swiftest UDP test server.
type Server struct {
	conn    *net.UDPConn
	bio     batchio.Conn
	gso     bool   // kernel splits super-buffers into DatagramSize segments
	caps    uint32 // capability set advertised: wire.ServerCaps, less CapSegmented without gso
	pool    *bufPool
	cfg     ServerConfig
	wg      sync.WaitGroup
	closed  atomic.Bool
	metrics serverMetrics
	started time.Time

	wheelStop chan struct{}

	mu         sync.Mutex
	byID       map[uint64]*session  // live sessions by session ID; guarded by mu
	helloCaps  map[string]helloCaps // negotiated caps per Hello source awaiting its Setup; guarded by mu
	order      []*session           // registration order, for deterministic wheel iteration; guarded by mu
	hsAttempts map[uint64]int       // Setup datagrams seen per session ID, for fault draws; guarded by mu

	// Wheel-goroutine scratch, reused every tick so the steady state runs at
	// 0 allocs/packet.
	active  []*session
	msgs    []batchio.Message
	msgBufs []*pktBuf
	bufs    []*pktBuf
	// helloSweep is when the wheel next expires unanswered Hello state.
	helloSweep time.Time

	// ctl is the read loop's single-message scratch for control replies.
	ctl [1]batchio.Message

	bytesSent atomic.Int64
}

// helloCaps is the capability set and nonce one Hello negotiated, held
// until the sender's Setup claims it or the wheel expires it.
type helloCaps struct {
	caps  uint32
	nonce uint64 // the client's Hello nonce; its DataOpen must repeat it
	seen  int64  // unix nanos of the Hello
}

type session struct {
	// peer is the address probe datagrams are paced to. Sessions publish
	// with nil and store the data-channel address when the client's
	// DataOpen arrives, hence the atomic — the wheel skips the session
	// until the pointer lands.
	peer     atomic.Pointer[net.UDPAddr]
	rateKbps atomic.Uint32
	rateSeq  atomic.Uint32
	lastSeen atomic.Int64 // unix nanos
	retired  atomic.Bool  // exactly-once wheel deregistration

	// Identity, immutable after creation.
	id       uint64       // session ID, the key both channels share
	caps     uint32       // active capability set
	nonce    uint64       // Hello nonce a DataOpen must carry to bind the data channel
	ctrlPeer *net.UDPAddr // control-channel address (reports, acks)

	// Pacing state, owned by the wheel goroutine after publication.
	seq        uint32
	carryBytes float64
	lastTick   time.Time
	// Per-interval report state, wheel-owned: cumulative paced traffic and
	// the cadence cursor for CapReports.
	sentBytes     uint64
	sentDatagrams uint32
	reportSeq     uint32
	lastReport    time.Time
}

// NewServer starts a server on addr (e.g. "127.0.0.1:0"). Close releases it.
//
//lint:allow ctxflow the read loop's lifetime is bounded by Close, the standard lifecycle for long-lived servers
func NewServer(addr string, cfg ServerConfig) (*Server, error) {
	return newServer(addr, cfg, true)
}

// newServer is NewServer with the pacing wheel optionally left unstarted, so
// deterministic tests can drive advance with a scripted clock.
//
//lint:allow ctxflow the read loop's lifetime is bounded by Close, the standard lifecycle for long-lived servers
func newServer(addr string, cfg ServerConfig, startWheel bool) (*Server, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolving %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %q: %w", addr, err)
	}
	if cfg.UplinkMbps <= 0 {
		cfg.UplinkMbps = 100
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	mode := batchio.ModeAuto
	if cfg.Wire == WireFallback {
		mode = batchio.ModeFallback
	}
	s := &Server{
		conn:       conn,
		bio:        batchio.New(conn, mode),
		pool:       newBufPool(segsPerBuf*DatagramSize, 4),
		cfg:        cfg,
		byID:       make(map[uint64]*session),
		helloCaps:  make(map[string]helloCaps),
		hsAttempts: make(map[uint64]int),
		started:    time.Now(),
		wheelStop:  make(chan struct{}),
	}
	if !cfg.startedAt.IsZero() {
		s.started = cfg.startedAt
	}
	if cfg.Wire == WireAuto && batchio.Batched(s.bio) &&
		batchio.MaxSegments(DatagramSize) >= segsPerBuf {
		s.gso = batchio.SetSegmentSize(conn, DatagramSize) == nil
	}
	s.caps = wire.ServerCaps
	if !s.gso {
		s.caps &^= wire.CapSegmented
	}
	s.metrics = newServerMetrics(cfg.Metrics)
	s.metrics.uplinkMbps.Set(cfg.UplinkMbps)
	s.wg.Add(1)
	go s.readLoop()
	if startWheel {
		s.wg.Add(1)
		go s.wheelLoop()
	}
	return s, nil
}

// Addr reports the server's bound UDP address.
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// BytesSent reports cumulative probe bytes sent, for utilization accounting.
func (s *Server) BytesSent() int64 { return s.bytesSent.Load() }

// ActiveSessions reports the number of in-flight tests.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// Close stops the server and retires all sessions.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.wheelStop)
	err := s.conn.Close()
	s.mu.Lock()
	live := append([]*session(nil), s.order...)
	s.mu.Unlock()
	for _, sess := range live {
		s.retire(sess)
	}
	s.wg.Wait()
	return err
}

func (s *Server) logf(msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info(msg, args...)
	}
}

// elapsed is the fault plan's time base: wall time since the server started.
func (s *Server) elapsed() time.Duration { return time.Since(s.started) }

// BlackedOut reports whether the server's fault plan has it blacked out
// right now. The fleet heartbeat loop (cmd/swiftest serve -register) gates
// beats on this, so an injected blackout silences the control plane exactly
// when it silences the data plane and the dispatcher's K-silent-windows rule
// marks the server dead — the same detector, both worlds.
func (s *Server) BlackedOut() bool { return s.cfg.Faults.Blackout(s.elapsed()) }

// cloneUDPAddr copies a peer address out of reused receive-batch storage so
// it can be stored or used after the read loop recycles the batch.
func cloneUDPAddr(a *net.UDPAddr) *net.UDPAddr {
	return &net.UDPAddr{IP: append(net.IP(nil), a.IP...), Port: a.Port, Zone: a.Zone}
}

func (s *Server) readLoop() {
	defer s.wg.Done()
	msgs := make([]batchio.Message, recvBatch)
	for i := range msgs {
		msgs[i].Buf = make([]byte, 2048)
		msgs[i].Addr = &net.UDPAddr{IP: make(net.IP, 16)}
	}
	out := make([]byte, 0, 64)
	for {
		n, err := s.bio.RecvBatch(msgs)
		if err != nil {
			if s.closed.Load() {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		for i := 0; i < n; i++ {
			out = s.handlePacket(msgs[i].Buf[:msgs[i].N], msgs[i].Addr, out)
		}
	}
}

// sendControl routes one control datagram through the batch sender, the
// single code path for every server wire send: a failed write increments
// send-errors instead of vanishing. Control messages are shorter than the
// offload segment size, so an offload-enabled socket sends them unchanged.
// Read-loop goroutine only (it reuses the ctl scratch).
func (s *Server) sendControl(out []byte, peer *net.UDPAddr) {
	s.ctl[0] = batchio.Message{Buf: out, Addr: peer}
	if _, err := s.bio.SendBatch(s.ctl[:]); err != nil && !s.closed.Load() {
		s.metrics.sendErrors.Inc()
	}
}

// sendPong writes a pong, applying any active pong-delay / pong-dup fault.
// The fast path (no fault plan) is one nil check and a direct batched write.
func (s *Server) sendPong(out []byte, peer *net.UDPAddr) {
	act := s.cfg.Faults.Pong(s.elapsed())
	if act.Drop {
		s.metrics.faultsInjected.Inc()
		return
	}
	if act.Delay <= 0 && act.Copies <= 1 {
		s.sendControl(out, peer)
		return
	}
	s.metrics.faultsInjected.Inc()
	// out and peer are reused by the read loop; the delayed send needs
	// copies of both.
	msg := []batchio.Message{{Buf: append([]byte(nil), out...), Addr: cloneUDPAddr(peer)}}
	send := func() {
		for i := 0; i < act.Copies; i++ {
			if _, err := s.bio.SendBatch(msg); err != nil && !s.closed.Load() {
				s.metrics.sendErrors.Inc()
			}
		}
	}
	if act.Delay > 0 {
		time.AfterFunc(act.Delay, send)
		return
	}
	send()
}

// clampRateLocked limits a session's rate so that the aggregate across all
// sessions stays within the server uplink. except, when non-nil, is the
// session whose rate is being replaced and is left out of the in-use sum.
// Callers hold s.mu.
func (s *Server) clampRateLocked(kbps uint32, except *session) uint32 {
	var inUse float64
	for _, sess := range s.order {
		if sess == except {
			continue
		}
		inUse += wire.MbpsFromKbps(sess.rateKbps.Load())
	}
	free := s.cfg.UplinkMbps - inUse
	if free <= 0 {
		return 0
	}
	if want := wire.MbpsFromKbps(kbps); want > free {
		return wire.KbpsFromMbps(free)
	}
	return kbps
}
