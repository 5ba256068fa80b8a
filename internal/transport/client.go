package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/errdefs"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/transport/batchio"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// PingServerContext measures the round-trip latency to one server with count
// pings and returns the minimum RTT observed, the standard BTS
// server-selection metric (§2). Cancelling ctx stops the ping exchange
// early. Failure to elicit any pong yields an error matching both
// errdefs.ErrProbeTimeout and errdefs.ServerError.
func PingServerContext(ctx context.Context, addr string, count int, timeout time.Duration) (time.Duration, error) {
	if count <= 0 {
		count = 3
	}
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return 0, &errdefs.ServerError{Addr: addr, Op: "ping", Err: err}
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return 0, &errdefs.ServerError{Addr: addr, Op: "ping", Err: err}
	}
	defer conn.Close()

	best := time.Duration(-1)
	buf := make([]byte, 256)
	out := make([]byte, 0, wire.PingLen)
	for i := 0; i < count; i++ {
		if err := ctx.Err(); err != nil {
			if best >= 0 {
				return best, nil // partial measurement still useful
			}
			return 0, &errdefs.ServerError{Addr: addr, Op: "ping",
				Err: fmt.Errorf("%w: %w", errdefs.ErrTestAborted, err)}
		}
		seq := uint32(i + 1)
		ping := wire.Ping{Seq: seq, SentNS: uint64(time.Now().UnixNano())}
		out = ping.AppendTo(out[:0])
		if _, err := conn.Write(out); err != nil {
			return 0, &errdefs.ServerError{Addr: addr, Op: "ping", Err: err}
		}
		deadline := time.Now().Add(timeout)
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		if err := conn.SetReadDeadline(deadline); err != nil {
			return 0, err
		}
		for {
			n, err := conn.Read(buf)
			if err != nil {
				break // timeout: try the next ping
			}
			var pong wire.Pong
			if pong.Decode(buf[:n]) != nil || pong.Seq != seq {
				continue // stale or foreign datagram
			}
			rtt := time.Duration(uint64(time.Now().UnixNano()) - pong.EchoNS)
			if best < 0 || rtt < best {
				best = rtt
			}
			break
		}
	}
	if best < 0 {
		return 0, &errdefs.ServerError{Addr: addr, Op: "ping",
			Err: fmt.Errorf("no pong within %v: %w", timeout, errdefs.ErrProbeTimeout)}
	}
	return best, nil
}

// ServerPool is the client's view of the deployed test servers: addresses
// with their advertised uplink capacities (§5.1 selects a server set whose
// total uplink slightly exceeds the probing rate).
type ServerPool struct {
	Servers []PoolServer
}

// PoolServer is one test server in the pool.
type PoolServer struct {
	Addr       string
	UplinkMbps float64
	// RTT is filled by RankByLatencyContext.
	RTT time.Duration
}

// rankConcurrency bounds the goroutines RankByLatencyContext fans out, so a
// huge candidate list cannot open hundreds of sockets at once.
const rankConcurrency = 8

// RankByLatencyContext pings all servers concurrently (bounded fan-out) and
// sorts the pool by ascending RTT, dropping unreachable servers. Ties keep
// the caller's original order, so the ranking is deterministic given the RTT
// measurements. It returns an error matching errdefs.ErrNoReachableServer if
// no server responded.
func (p *ServerPool) RankByLatencyContext(ctx context.Context, pingCount int, timeout time.Duration) error {
	candidates := len(p.Servers)
	rtts := make([]time.Duration, candidates)
	errs := make([]error, candidates)
	sem := make(chan struct{}, rankConcurrency)
	var wg sync.WaitGroup
	for i := range p.Servers {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			rtts[i], errs[i] = PingServerContext(ctx, p.Servers[i].Addr, pingCount, timeout)
		}(i)
	}
	wg.Wait()

	// Filter in original order, then stable-sort: equal RTTs preserve the
	// configured order, keeping the ranking reproducible.
	reachable := p.Servers[:0]
	for i, srv := range p.Servers {
		if errs[i] != nil {
			continue
		}
		srv.RTT = rtts[i]
		reachable = append(reachable, srv)
	}
	p.Servers = reachable
	if len(p.Servers) == 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("transport: ranking servers: %w: %w", errdefs.ErrTestAborted, err)
		}
		return fmt.Errorf("transport: %w (tried %d)", errdefs.ErrNoReachableServer, candidates)
	}
	sort.SliceStable(p.Servers, func(i, j int) bool { return p.Servers[i].RTT < p.Servers[j].RTT })
	return nil
}

// serversFor picks the nearest servers whose total uplink covers rateMbps
// with a little headroom (§5.1). It never returns an empty set while the
// pool is non-empty.
func (p *ServerPool) serversFor(rateMbps float64) []PoolServer {
	var out []PoolServer
	var total float64
	for _, srv := range p.Servers {
		out = append(out, srv)
		total += srv.UplinkMbps
		if total >= rateMbps*uplinkHeadroom {
			break
		}
	}
	return out
}

// uplinkHeadroom over-provisions the selected server set slightly beyond the
// probing rate (§5.1 "slightly exceeds").
const uplinkHeadroom = 1.05

// handshakeAttempts bounds the sends of each handshake step (Hello, Setup,
// DataOpen) per server.
const handshakeAttempts = 5

// handshakeTimeout is the per-attempt wait for a handshake reply.
const handshakeTimeout = 200 * time.Millisecond

// UDPProbe implements core.Probe over real UDP sockets against a pool of
// test servers. It opens one session per server as the requested probing
// rate grows, splitting the rate across sessions in latency order, and fails
// over mid-test: a session that was assigned rate but delivered nothing for
// K consecutive sample windows is declared lost, its share moving to the
// surviving servers.
type UDPProbe struct {
	pool    *ServerPool
	testID  uint64
	started time.Time
	trace   *obs.Trace
	ctx     context.Context

	mu         sync.Mutex
	sessions   []*clientSession // guarded by mu; lost sessions keep their slot
	nextServer int              // next unopened pool index; guarded by mu
	targetMbps float64          // guarded by mu
	used       int              // sessions opened; guarded by mu
	lost       int              // sessions declared dead; guarded by mu

	lostAfter    int   // K zero-byte windows before a session is lost
	lastOpenErr  error // most recent session-open failure; guarded by mu
	lostCounter  *obs.Counter
	retryCounter *obs.Counter

	// recvCounter counts messages read from data sockets, coalescedCounter
	// those the kernel's receive offload merged from several datagrams.
	recvCounter      *obs.Counter
	coalescedCounter *obs.Counter

	rateSeq     atomic.Uint32
	rxBytes     atomic.Int64
	lastSample  time.Time
	lastRxBytes int64

	// jitterNs is the RFC 3550-style interarrival jitter estimate in
	// nanoseconds, stored as float64 bits for lock-free updates.
	jitterNs    atomic.Uint64
	lastTransit atomic.Int64 // previous packet's transit time (ns)

	sampleInterval time.Duration
	closed         atomic.Bool

	wire WireMode // syscall strategy for session receive loops

	token wire.Token // dispatcher-lease auth token carried by every Setup

	// finalEst/finalRegime ride the Bye when set; guarded by mu.
	finalEst    estimate.Estimates
	finalRegime estimate.Regime
}

type clientSession struct {
	conn   *net.UDPConn // data channel: paced probe datagrams only
	server PoolServer
	probe  *UDPProbe
	done   chan struct{}

	rxBytes  atomic.Int64
	lastRx   int64   // NextSample's window cursor; sampling goroutine only
	assigned float64 // Mbps currently asked of this server; probe.mu held for access
	lost     bool    // probe.mu held for access
	tracker  *faults.LostTracker

	id         uint64       // session ID, the key both channels share
	caps       uint32       // capability intersection from the SetupAck
	ctrl       *net.UDPConn // control channel
	ctrlDone   chan struct{}
	byeAck     chan struct{}
	byeAckOnce sync.Once
	repBytes   atomic.Uint64 // cumulative paced bytes, latest server Report
	repDgrams  atomic.Uint32 // cumulative paced datagrams, latest server Report
}

// SampleInterval is the client's sampling period, matching §5.1's 50 ms.
const SampleInterval = 50 * time.Millisecond

// NewUDPProbeContext prepares a probe against the ranked pool. The probe is
// idle until the first SetRate. Its handshakes and sample waits honour ctx:
// cancellation makes the next NextSample return !ok and stops handshake
// retries.
func NewUDPProbeContext(ctx context.Context, pool *ServerPool, rng *rand.Rand) (*UDPProbe, error) {
	if len(pool.Servers) == 0 {
		return nil, fmt.Errorf("transport: %w: empty server pool", errdefs.ErrNoServers)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	now := time.Now()
	return &UDPProbe{
		pool:           pool,
		testID:         rng.Uint64(),
		started:        now,
		lastSample:     now,
		sampleInterval: SampleInterval,
		lostAfter:      faults.DefaultLostWindows,
		ctx:            ctx,
	}, nil
}

// TestID reports the probe's wire-protocol test identifier, for correlating
// run-records with server-side logs and metrics.
func (p *UDPProbe) TestID() uint64 { return p.testID }

// SetTrace attaches a tracer that receives transport-level events (server
// additions, handshake retries, lost sessions). Call before the first
// SetRate; a nil tracer disables emission.
func (p *UDPProbe) SetTrace(tr *obs.Trace) { p.trace = tr }

// SetLostAfter overrides K, the consecutive zero-byte sample windows after
// which an assigned session is declared lost. Call before the first SetRate;
// k <= 0 keeps the default.
func (p *UDPProbe) SetLostAfter(k int) {
	if k > 0 {
		p.lostAfter = k
	}
}

// SetWire selects the receive syscall strategy (WireAuto batches datagrams
// per syscall where the platform supports it, and turns on UDP receive
// offload against a server that sends segmentation-offload super-packets;
// WireFallback forces one read per datagram and never coalesces).
// Call before the first SetRate. Both paths observe identical traffic — the
// batched-vs-fallback property tests pin that.
func (p *UDPProbe) SetWire(mode WireMode) { p.wire = mode }

// SetMetrics registers the client-side metric series on reg. Call before the
// first SetRate; a nil registry disables instrumentation.
func (p *UDPProbe) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.lostCounter = reg.Counter("swiftest_client_sessions_lost_total",
		"Server sessions declared dead mid-test and failed over.")
	p.retryCounter = reg.Counter("swiftest_client_handshake_retries_total",
		"Session-setup attempts that needed retransmission.")
	p.recvCounter = reg.Counter("swiftest_client_data_receives_total",
		"Messages read from session data sockets: one datagram each, or one coalesced run under UDP receive offload.")
	p.coalescedCounter = reg.Counter("swiftest_client_data_receives_coalesced_total",
		"Data-socket messages the kernel's UDP receive offload coalesced from several datagrams.")
}

// SetRate implements core.Probe: it sizes the server set for mbps and
// distributes the rate across sessions in latency order.
//
// Mid-test failures degrade gracefully rather than aborting the test: if an
// additional server cannot be opened the rate is spread over the sessions
// that exist, and datagram send errors are tolerated like any other UDP loss
// (§5.1: servers are added "if necessary" — when none is available, the test
// continues with what it has and the samples tell the truth). Only a closed
// probe or an invalid rate is an error. The first SetRate is the exception:
// with no session at all the test cannot start, so total session failure is
// reported.
func (p *UDPProbe) SetRate(mbps float64) error {
	if mbps < 0 {
		return fmt.Errorf("transport: negative probing rate %g", mbps)
	}
	if p.closed.Load() {
		return errors.New("transport: probe closed")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.targetMbps = mbps
	p.redistributeLocked()
	if mbps > 0 && p.liveCountLocked() == 0 {
		if p.lastOpenErr != nil {
			// Surface the concrete refusal (auth rejection, handshake
			// timeout) instead of a generic exhaustion error.
			return fmt.Errorf("transport: %w: no test server accepted the session: %w",
				errdefs.ErrNoReachableServer, p.lastOpenErr)
		}
		return fmt.Errorf("transport: %w: no test server accepted the session",
			errdefs.ErrNoReachableServer)
	}
	return nil
}

func (p *UDPProbe) liveCountLocked() int {
	n := 0
	for _, sess := range p.sessions {
		if !sess.lost {
			n++
		}
	}
	return n
}

// redistributeLocked splits the current target rate across live sessions
// nearest-first, opening new sessions (skipping servers that refuse) until
// the live uplink covers the target with headroom, then pushes the new
// shares to every live server. Callers hold p.mu.
func (p *UDPProbe) redistributeLocked() {
	// Uplink already live.
	var covered float64
	for _, sess := range p.sessions {
		if !sess.lost {
			covered += sess.server.UplinkMbps
		}
	}
	// Open more servers while coverage falls short; failures shrink the
	// candidate set instead of failing the test.
	for covered < p.targetMbps*uplinkHeadroom && p.nextServer < len(p.pool.Servers) {
		srv := p.pool.Servers[p.nextServer]
		p.nextServer++
		sess, err := p.openSessionLocked(srv)
		if err != nil {
			p.lastOpenErr = err
			continue
		}
		p.sessions = append(p.sessions, sess)
		covered += srv.UplinkMbps
	}
	// Split the rate: each live server takes up to its uplink, nearest
	// first; then push shares on the wire.
	remaining := p.targetMbps
	seq := p.rateSeq.Add(1)
	for _, sess := range p.sessions {
		if sess.lost {
			continue
		}
		share := remaining
		if share > sess.server.UplinkMbps {
			share = sess.server.UplinkMbps
		}
		remaining -= share
		sess.assigned = share
		// Send twice: rate updates are idempotent; send errors are UDP loss.
		r2 := wire.Rate2{SessionID: sess.id, RateKbps: wire.KbpsFromMbps(share), Seq: seq}
		buf := r2.AppendTo(make([]byte, 0, wire.Rate2Len))
		for j := 0; j < 2; j++ {
			_, _ = sess.ctrl.Write(buf)
		}
	}
}

// clientRecvBufSize is a session receive buffer: room for the largest
// coalesced receive, a 64 KiB UDP_GRO super-packet.
const clientRecvBufSize = 64 << 10

// clientRecvBufs is how many receive buffers a session holds, and so how
// many coalesced super-packets one receive syscall can return.
const clientRecvBufs = 2

// clientRecvBatch is how many datagrams a receive syscall accepts when the
// kernel does not coalesce: the session's buffers are then carved into
// clientRecvSlot-byte slots, one per datagram.
const (
	clientRecvBatch = 16
	clientRecvSlot  = 2048
)

// clientRecvPool holds every probe's session receive buffers. It is
// process-wide so sequential tests reuse one set of buffers instead of
// leaving a fresh pool for the collector after each test; it keeps as many
// buffers as the most sessions that were ever open at once held.
var clientRecvPool = newBufPool(clientRecvBufSize, 0)

// receiveLoop drains the session's data socket. Where the receive path is
// batched and the server sends super-packets (it granted
// wire.CapSegmented), it turns on UDP receive offload, so each of up to
// clientRecvBufs messages per syscall can be a whole super-packet, which is
// split back into its datagrams here. Otherwise the kernel has nothing to
// coalesce, and the loop reads up to clientRecvBatch datagrams per syscall
// (one on the fallback path) into slots of a single buffer. Every datagram is decoded on its own either way. Byte counters
// and the arrival clock are touched once per receive syscall, and the
// buffers come from clientRecvPool, so the steady state reads at 0
// allocs/packet. The loop ends when the socket closes: Finish and the
// lost-session failover both close it.
func (cs *clientSession) receiveLoop() {
	defer close(cs.done)
	mode := batchio.ModeAuto
	if cs.probe.wire == WireFallback {
		mode = batchio.ModeFallback
	}
	bio := batchio.New(cs.conn, mode)
	var bufs []*pktBuf
	defer func() {
		for _, b := range bufs {
			b.release()
		}
	}()
	var msgs []batchio.Message
	if cs.caps&wire.CapSegmented != 0 && batchio.Batched(bio) && batchio.SetReceiveOffload(cs.conn) == nil {
		msgs = make([]batchio.Message, clientRecvBufs)
		for i := range msgs {
			bufs = append(bufs, clientRecvPool.get())
			msgs[i].Buf = bufs[i].b
		}
	} else {
		bufs = append(bufs, clientRecvPool.get())
		msgs = make([]batchio.Message, clientRecvBatch)
		for i := range msgs {
			off := i * clientRecvSlot
			msgs[i].Buf = bufs[0].b[off : off+clientRecvSlot : off+clientRecvSlot]
		}
	}
	for {
		n, err := bio.RecvBatch(msgs)
		if err != nil {
			return
		}
		// One clock read per syscall: every datagram it returned shares
		// this arrival time in the jitter fold.
		arrival := time.Now().UnixNano()
		var valid int64
		var coalesced uint64
		for i := 0; i < n; i++ {
			if msgs[i].Seg > 0 {
				coalesced++
			}
			for rest := msgs[i].Buf[:msgs[i].N]; len(rest) > 0; {
				var pkt []byte
				pkt, rest = batchio.NextSegment(rest, msgs[i].Seg)
				var d wire.Data2
				if d.Decode(pkt) != nil {
					continue
				}
				valid += int64(len(pkt))
				cs.probe.observeJitter(d.SentNS, arrival)
			}
		}
		if valid > 0 {
			cs.rxBytes.Add(valid)
			cs.probe.rxBytes.Add(valid)
		}
		cs.probe.recvCounter.Add(uint64(n))
		cs.probe.coalescedCounter.Add(coalesced)
	}
}

// observeJitter folds one probe datagram's send timestamp and arrival time
// into the RFC 3550 interarrival-jitter estimator: J += (|D| − J)/16 where D
// is the change in (arrival − send) transit time between consecutive
// packets. Clock offset between client and server cancels in the
// difference, so no synchronisation is needed. The caller reads the clock
// once per receive syscall: datagrams of one receive (a recvmmsg batch or a
// receive-offload super-packet) share its arrival time, so jitter within one
// receive is not seen.
func (p *UDPProbe) observeJitter(sentNS uint64, arrivalNS int64) {
	transit := arrivalNS - int64(sentNS)
	prev := p.lastTransit.Swap(transit)
	if prev == 0 {
		return
	}
	delta := transit - prev
	if delta < 0 {
		delta = -delta
	}
	for {
		oldBits := p.jitterNs.Load()
		old := math.Float64frombits(oldBits)
		next := old + (float64(delta)-old)/16
		if p.jitterNs.CompareAndSwap(oldBits, math.Float64bits(next)) {
			return
		}
	}
}

// Jitter reports the current interarrival-jitter estimate — a free
// diagnostic of the access link's queueing behaviour during the test.
func (p *UDPProbe) Jitter() time.Duration {
	return time.Duration(math.Float64frombits(p.jitterNs.Load()))
}

// NextSample implements core.Probe: it waits until the next sampling
// boundary (abandoning the wait if the probe's context is cancelled),
// reports the throughput observed in the window, and folds each session's
// delivery through the dead-session detector — failing over when a session
// that owes traffic has been silent for K consecutive windows.
//
//lint:allow ctxflow the wait is bounded by the sampling interval and the probe's stored context
func (p *UDPProbe) NextSample() (float64, bool) {
	if p.closed.Load() {
		return 0, false
	}
	next := p.lastSample.Add(p.sampleInterval)
	if d := time.Until(next); d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-p.ctx.Done():
			timer.Stop()
			return 0, false
		}
	}
	now := time.Now()
	elapsed := now.Sub(p.lastSample).Seconds()
	if elapsed <= 0 {
		return 0, false
	}
	rx := p.rxBytes.Load()
	bytes := rx - p.lastRxBytes
	p.lastRxBytes = rx
	p.lastSample = now

	p.detectLostSessions()

	p.mu.Lock()
	alive := p.liveCountLocked() > 0 || p.targetMbps == 0
	p.mu.Unlock()
	if !alive {
		return 0, false // every server is gone; the probe is exhausted
	}
	return float64(bytes) * 8 / elapsed / 1e6, true
}

// detectLostSessions folds the last window's per-session deliveries through
// each tracker and fails over any session declared dead: its share is
// redistributed to the survivors and its socket closed.
func (p *UDPProbe) detectLostSessions() {
	var toClose []*clientSession
	p.mu.Lock()
	failedOver := false
	for _, sess := range p.sessions {
		if sess.lost {
			continue
		}
		rx := sess.rxBytes.Load()
		window := rx - sess.lastRx
		sess.lastRx = rx
		if sess.tracker.Observe(window, sess.assigned > 0) {
			sess.lost = true
			p.lost++
			p.lostCounter.Inc()
			p.trace.Record(p.Elapsed(), obs.EventServerLost, sess.assigned, 0, sess.server.Addr)
			sess.assigned = 0
			toClose = append(toClose, sess)
			failedOver = true
		}
	}
	if failedOver {
		p.redistributeLocked()
	}
	p.mu.Unlock()
	for _, sess := range toClose {
		sess.conn.Close() // unblocks the receive loop
		sess.ctrl.Close() // unblocks the control loop
	}
}

// Elapsed implements core.Probe.
func (p *UDPProbe) Elapsed() time.Duration { return time.Since(p.started) }

// DataMB implements core.Probe.
func (p *UDPProbe) DataMB() float64 { return float64(p.rxBytes.Load()) / 1e6 }

// ServersUsed implements core.ServerHealth.
func (p *UDPProbe) ServersUsed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// ServersLost implements core.ServerHealth.
func (p *UDPProbe) ServersLost() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lost
}

// Finish reports the result to every session's server and closes the probe:
// each live session gets a Bye (retransmitted until acked) carrying the
// estimator family.
func (p *UDPProbe) Finish(resultMbps float64, duration time.Duration) {
	if p.closed.Swap(true) {
		return
	}
	p.mu.Lock()
	sessions := append([]*clientSession(nil), p.sessions...)
	est, regime := p.finalEst, p.finalRegime
	p.mu.Unlock()
	for _, sess := range sessions {
		if !sess.lost {
			p.sendBye(sess, resultMbps, duration, est, regime)
		}
		sess.conn.Close()
		sess.ctrl.Close()
		<-sess.done
		<-sess.ctrlDone
	}
}
