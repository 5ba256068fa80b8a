//go:build linux && (amd64 || arm64)

package batchio

import (
	"encoding/binary"
	"syscall"
	"testing"
)

// groCmsg builds one control message as the kernel lays it out.
func groCmsg(level, typ int32, data []byte) []byte {
	n := syscall.SizeofCmsghdr + len(data)
	b := make([]byte, (n+7)&^7)
	binary.NativeEndian.PutUint64(b, uint64(n))
	binary.NativeEndian.PutUint32(b[8:], uint32(level))
	binary.NativeEndian.PutUint32(b[12:], uint32(typ))
	copy(b[syscall.SizeofCmsghdr:], data)
	return b
}

func intData(v int32) []byte {
	b := make([]byte, 4)
	binary.NativeEndian.PutUint32(b, uint32(v))
	return b
}

// TestGROSegment pins the parser on well-formed and malformed control data.
func TestGROSegment(t *testing.T) {
	gro := groCmsg(syscall.IPPROTO_UDP, udpGRO, intData(1200))
	other := groCmsg(syscall.SOL_IP, 8, intData(7))
	cases := []struct {
		name string
		ctl  []byte
		want int
	}{
		{"empty", nil, 0},
		{"gro", gro, 1200},
		{"after another message", append(append([]byte(nil), other...), gro...), 1200},
		{"other only", other, 0},
		{"truncated header", gro[:10], 0},
		{"length past the buffer", gro[:syscall.SizeofCmsghdr+2], 0},
		{"no payload", groCmsg(syscall.IPPROTO_UDP, udpGRO, nil), 0},
		{"negative size", groCmsg(syscall.IPPROTO_UDP, udpGRO, intData(-5)), 0},
		{"oversized", groCmsg(syscall.IPPROTO_UDP, udpGRO, intData(1<<20)), 0},
	}
	for _, c := range cases {
		if got := groSegment(c.ctl); got != c.want {
			t.Errorf("%s: groSegment = %d, want %d", c.name, got, c.want)
		}
	}
}

// FuzzReceiveSegments feeds arbitrary control bytes, a received length and
// a segment size through the UDP_GRO control-message parser and the
// segment split. The control bytes come from the kernel, so they are
// external input: the parser must never panic and must only report a
// size in [0, 65535]. The split, with either the parsed size or the raw
// one, must tile Buf[:N] exactly, never yield an empty datagram for a
// non-empty receive, and never yield one longer than a positive Seg.
//
// Run with `go test -fuzz=FuzzReceiveSegments ./internal/transport/batchio/`;
// the seed corpus alone runs as a regular test.
func FuzzReceiveSegments(f *testing.F) {
	f.Add(groCmsg(syscall.IPPROTO_UDP, udpGRO, intData(1200)), uint16(8900), int32(1200))
	f.Add(groCmsg(syscall.IPPROTO_UDP, udpGRO, intData(1200)), uint16(60000), int32(0))
	f.Add(append(groCmsg(syscall.SOL_IP, 8, intData(1)), groCmsg(syscall.IPPROTO_UDP, udpGRO, intData(7))...),
		uint16(50), int32(7))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 17, 0, 0, 0, 104, 0, 0, 0}, uint16(1), int32(-1))
	f.Add([]byte(nil), uint16(0), int32(65536))

	buf := make([]byte, 1<<16)
	for i := range buf {
		buf[i] = byte(i)
	}
	f.Fuzz(func(t *testing.T, ctl []byte, n uint16, rawSeg int32) {
		parsed := groSegment(ctl)
		if parsed < 0 || parsed > 0xffff {
			t.Fatalf("groSegment = %d, outside [0, 65535]", parsed)
		}
		for _, seg := range []int{parsed, int(rawSeg)} {
			b := buf[:n]
			off := 0
			for rest := b; len(rest) > 0; {
				var d []byte
				d, rest = NextSegment(rest, seg)
				if len(d) == 0 {
					t.Fatalf("seg %d: empty datagram at offset %d of %d", seg, off, n)
				}
				if seg > 0 && len(d) > seg {
					t.Fatalf("seg %d: %d-byte datagram at offset %d", seg, len(d), off)
				}
				if &d[0] != &b[off] {
					t.Fatalf("seg %d: datagram at offset %d does not start where the last ended", seg, off)
				}
				off += len(d)
				if len(rest) > 0 && &rest[0] != &b[off] {
					t.Fatalf("seg %d: rest does not follow the datagram at offset %d", seg, off)
				}
			}
			if off != len(b) {
				t.Fatalf("seg %d: datagrams cover %d of %d bytes", seg, off, len(b))
			}
		}
	})
}
