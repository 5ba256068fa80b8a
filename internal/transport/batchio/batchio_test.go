package batchio

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// pair builds an unconnected listener and a connected sender socket aimed at
// it, both on loopback.
func pair(t *testing.T) (recv *net.UDPConn, send *net.UDPConn) {
	t.Helper()
	r, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	s, err := net.DialUDP("udp", nil, r.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return r, s
}

// recvMsgs builds a receive batch with peer-addr storage (16-byte backing).
func recvMsgs(n int) []Message {
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i].Buf = make([]byte, 2048)
		msgs[i].Addr = &net.UDPAddr{IP: make(net.IP, 16)}
	}
	return msgs
}

// drain reads from conn until want datagrams arrived or the deadline passed,
// returning the payloads in arrival order.
func drain(t *testing.T, conn Conn, raw *net.UDPConn, want int) [][]byte {
	t.Helper()
	var got [][]byte
	msgs := recvMsgs(8)
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < want {
		_ = raw.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, err := conn.RecvBatch(msgs)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if time.Now().After(deadline) {
					t.Fatalf("only %d/%d datagrams arrived", len(got), want)
				}
				continue
			}
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			got = append(got, append([]byte(nil), msgs[i].Buf[:msgs[i].N]...))
		}
	}
	return got
}

func modes(t *testing.T) map[string]Mode {
	return map[string]Mode{"auto": ModeAuto, "fallback": ModeFallback}
}

// TestSendRecvRoundTrip: every mode combination moves the same bytes, in
// order, over loopback — including batches longer than BatchSize.
func TestSendRecvRoundTrip(t *testing.T) {
	for sname, smode := range modes(t) {
		for rname, rmode := range modes(t) {
			t.Run(fmt.Sprintf("send=%s/recv=%s", sname, rname), func(t *testing.T) {
				r, s := pair(t)
				sender := New(s, smode)
				receiver := New(r, rmode)

				const count = BatchSize + 17 // forces a multi-syscall batch
				msgs := make([]Message, count)
				for i := range msgs {
					msgs[i].Buf = []byte(fmt.Sprintf("datagram-%03d", i))
				}
				sent, err := sender.SendBatch(msgs)
				if err != nil || sent != count {
					t.Fatalf("SendBatch = %d, %v; want %d, nil", sent, err, count)
				}
				got := drain(t, receiver, r, count)
				for i, g := range got {
					want := fmt.Sprintf("datagram-%03d", i)
					if string(g) != want {
						t.Fatalf("datagram %d = %q, want %q", i, g, want)
					}
				}
			})
		}
	}
}

// TestSendToAddr: unconnected sockets route per-message via Addr, and the
// receiver reports the peer in caller-provided storage without allocating a
// fresh UDPAddr.
func TestSendToAddr(t *testing.T) {
	for name, mode := range modes(t) {
		t.Run(name, func(t *testing.T) {
			r, _ := pair(t)
			u, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer u.Close()
			sender := New(u, mode)
			receiver := New(r, mode)

			dst := r.LocalAddr().(*net.UDPAddr)
			msgs := []Message{
				{Buf: []byte("to-a"), Addr: dst},
				{Buf: []byte("to-b"), Addr: dst},
			}
			if sent, err := sender.SendBatch(msgs); err != nil || sent != 2 {
				t.Fatalf("SendBatch = %d, %v", sent, err)
			}

			rmsgs := recvMsgs(4)
			addrBefore := rmsgs[0].Addr
			_ = r.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, err := receiver.RecvBatch(rmsgs)
			if err != nil || n == 0 {
				t.Fatalf("RecvBatch = %d, %v", n, err)
			}
			if rmsgs[0].Addr != addrBefore {
				t.Error("RecvBatch replaced the caller's addr storage instead of filling it")
			}
			wantPort := u.LocalAddr().(*net.UDPAddr).Port
			if rmsgs[0].Addr.Port != wantPort {
				t.Errorf("peer port = %d, want %d", rmsgs[0].Addr.Port, wantPort)
			}
			if !rmsgs[0].Addr.IP.Equal(net.IPv4(127, 0, 0, 1)) {
				t.Errorf("peer IP = %v, want 127.0.0.1", rmsgs[0].Addr.IP)
			}
		})
	}
}

// TestRecvDeadline: an expired read deadline surfaces as a net.Error with
// Timeout(), on both paths.
func TestRecvDeadline(t *testing.T) {
	for name, mode := range modes(t) {
		t.Run(name, func(t *testing.T) {
			r, _ := pair(t)
			receiver := New(r, mode)
			_ = r.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
			_, err := receiver.RecvBatch(recvMsgs(1))
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("err = %v, want net.Error with Timeout()", err)
			}
		})
	}
}

// TestRecvClosed: a closed socket errors out instead of hanging.
func TestRecvClosed(t *testing.T) {
	for name, mode := range modes(t) {
		t.Run(name, func(t *testing.T) {
			r, _ := pair(t)
			receiver := New(r, mode)
			r.Close()
			if _, err := receiver.RecvBatch(recvMsgs(1)); err == nil {
				t.Fatal("RecvBatch on a closed socket returned nil error")
			}
		})
	}
}

// TestBatchedReportsPath: on Linux ModeAuto yields the vectored path and
// ModeFallback never does; elsewhere both report fallback.
func TestBatchedReportsPath(t *testing.T) {
	r, _ := pair(t)
	if Batched(New(r, ModeFallback)) {
		t.Error("ModeFallback reported as batched")
	}
	// ModeAuto's answer is platform-dependent; just exercise it.
	_ = Batched(New(r, ModeAuto))
}

// TestSegmentOffloadRoundTrip: with UDP_SEGMENT set, one message carrying
// k×size bytes arrives as k wire datagrams of size bytes each, bytes intact
// — the property the pacing wheel's super-buffers rely on. Skipped where the
// kernel lacks the offload.
func TestSegmentOffloadRoundTrip(t *testing.T) {
	r, _ := pair(t)
	u, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	const seg = 1200
	if err := SetSegmentSize(u, seg); err != nil {
		t.Skipf("no UDP segmentation offload: %v", err)
	}
	sender := New(u, ModeAuto)
	receiver := New(r, ModeAuto)

	const k = 7
	buf := make([]byte, k*seg)
	for i := range buf {
		buf[i] = byte(i/seg + 1) // segment index tags every byte
	}
	msgs := []Message{{Buf: buf, Addr: r.LocalAddr().(*net.UDPAddr)}}
	if sent, err := sender.SendBatch(msgs); err != nil || sent != 1 {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	got := drain(t, receiver, r, k)
	for i, g := range got {
		if len(g) != seg {
			t.Fatalf("datagram %d: %d bytes, want %d", i, len(g), seg)
		}
		for _, c := range g {
			if c != byte(i+1) {
				t.Fatalf("datagram %d carries byte %d, want %d", i, c, i+1)
			}
		}
	}
	if MaxSegments(seg) < 50 {
		t.Errorf("MaxSegments(%d) = %d, want ≥50", seg, MaxSegments(seg))
	}
}

// TestEmptyBatches: zero-length batches are no-ops.
func TestEmptyBatches(t *testing.T) {
	r, _ := pair(t)
	c := New(r, ModeAuto)
	if n, err := c.SendBatch(nil); n != 0 || err != nil {
		t.Errorf("SendBatch(nil) = %d, %v", n, err)
	}
	if n, err := c.RecvBatch(nil); n != 0 || err != nil {
		t.Errorf("RecvBatch(nil) = %d, %v", n, err)
	}
}

// TestReceiveOffloadRoundTrip: a GSO send of seven full segments and a
// short tail reaches a UDP_GRO socket as one coalesced receive — N covers
// every byte, Seg is the segment size, NextSegment recovers the datagrams —
// and reaches a socket without the option as eight plain receives. The same
// eight datagrams sent one by one reach a UDP_GRO socket as eight receives
// with Seg 0: over loopback nothing coalesces what was not sent as one.
// Skipped where the kernel lacks either offload.
func TestReceiveOffloadRoundTrip(t *testing.T) {
	const seg, k, tail = 1200, 7, 500
	payload := make([]byte, k*seg+tail)
	for i := range payload {
		payload[i] = byte(i/seg + 1) // segment index tags every byte
	}
	send := func(t *testing.T, r *net.UDPConn) {
		t.Helper()
		u, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer u.Close()
		if err := SetSegmentSize(u, seg); err != nil {
			t.Skipf("no UDP segmentation offload: %v", err)
		}
		msgs := []Message{{Buf: payload, Addr: r.LocalAddr().(*net.UDPAddr)}}
		if sent, err := New(u, ModeAuto).SendBatch(msgs); err != nil || sent != 1 {
			t.Fatalf("SendBatch = %d, %v", sent, err)
		}
	}
	sendEach := func(t *testing.T, r *net.UDPConn) {
		t.Helper()
		u, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer u.Close()
		var msgs []Message
		for rest := payload; len(rest) > 0; {
			var d []byte
			d, rest = NextSegment(rest, seg)
			msgs = append(msgs, Message{Buf: d, Addr: r.LocalAddr().(*net.UDPAddr)})
		}
		if sent, err := New(u, ModeAuto).SendBatch(msgs); err != nil || sent != len(msgs) {
			t.Fatalf("SendBatch = %d, %v", sent, err)
		}
	}
	recv := func(t *testing.T, r *net.UDPConn) []Message {
		t.Helper()
		msgs := make([]Message, 8)
		for i := range msgs {
			msgs[i].Buf = make([]byte, 64<<10)
		}
		_ = r.SetReadDeadline(time.Now().Add(2 * time.Second))
		receiver := New(r, ModeAuto)
		var got []Message
		total := 0
		for total < len(payload) {
			n, err := receiver.RecvBatch(msgs)
			if err != nil {
				t.Fatalf("RecvBatch after %d of %d bytes: %v", total, len(payload), err)
			}
			for _, m := range msgs[:n] {
				got = append(got, Message{Buf: append([]byte(nil), m.Buf[:m.N]...), N: m.N, Seg: m.Seg})
				total += m.N
			}
		}
		return got
	}

	t.Run("offload", func(t *testing.T) {
		r, _ := pair(t)
		if err := SetReceiveOffload(r); err != nil {
			t.Skipf("no UDP receive offload: %v", err)
		}
		send(t, r)
		got := recv(t, r)
		if len(got) != 1 || got[0].N != len(payload) || got[0].Seg != seg {
			t.Fatalf("got %d receives (first N=%d Seg=%d), want 1 with N=%d Seg=%d",
				len(got), got[0].N, got[0].Seg, len(payload), seg)
		}
		if string(got[0].Buf) != string(payload) {
			t.Fatal("coalesced receive does not carry the sent bytes")
		}
		i := 0
		for rest := got[0].Buf; len(rest) > 0; i++ {
			var d []byte
			d, rest = NextSegment(rest, got[0].Seg)
			want := seg
			if i == k {
				want = tail
			}
			if len(d) != want || d[0] != byte(i+1) || d[len(d)-1] != byte(i+1) {
				t.Fatalf("segment %d: %d bytes tagged %d, want %d tagged %d", i, len(d), d[0], want, i+1)
			}
		}
		if i != k+1 {
			t.Fatalf("split into %d datagrams, want %d", i, k+1)
		}
	})

	plain := func(t *testing.T, got []Message) {
		t.Helper()
		if len(got) != k+1 {
			t.Fatalf("got %d receives, want %d", len(got), k+1)
		}
		for i, m := range got {
			if m.Seg != 0 {
				t.Fatalf("receive %d: Seg = %d, want 0", i, m.Seg)
			}
			if m.N != seg && !(i == k && m.N == tail) {
				t.Fatalf("receive %d: %d bytes", i, m.N)
			}
		}
	}

	t.Run("plain", func(t *testing.T) {
		r, _ := pair(t)
		send(t, r)
		plain(t, recv(t, r))
	})

	t.Run("offload-plain-sender", func(t *testing.T) {
		r, _ := pair(t)
		if err := SetReceiveOffload(r); err != nil {
			t.Skipf("no UDP receive offload: %v", err)
		}
		sendEach(t, r)
		plain(t, recv(t, r))
	})
}
