//go:build linux && (amd64 || arm64)

package batchio

import (
	"encoding/binary"
	"net"
	"os"
	"syscall"
)

// udpSegment and udpGRO are the UDP_SEGMENT and UDP_GRO socket options
// (linux/udp.h); they postdate the stdlib syscall table freeze.
const (
	udpSegment = 103
	udpGRO     = 104
)

// SetSegmentSize enables kernel UDP segmentation offload on c: every send
// larger than size is split by the kernel into size-byte wire datagrams
// (plus a short tail), so one syscall — and one traversal of most of the
// stack — carries dozens of packets. Sends at or below size are unaffected,
// which keeps sub-segment control messages on the same socket intact.
//
// Callers must treat an error as "no offload" and fall back to one datagram
// per message; pre-4.18 kernels reject the option.
func SetSegmentSize(c *net.UDPConn, size int) error {
	return setUDPOption(c, udpSegment, size, "setsockopt(UDP_SEGMENT)")
}

// SetReceiveOffload enables kernel UDP receive offload (UDP_GRO) on c: the
// kernel may deliver a run of same-sized datagrams from one flow as a single
// coalesced receive, reported through Message.Seg by the vectored RecvBatch.
// Over loopback a GSO super-buffer then arrives whole instead of being cut
// into wire datagrams first.
//
// Only a socket read through the vectored path may enable it: the fallback
// path cannot see the segment size and would take a coalesced receive for
// one datagram. Its receive buffers must hold 64 KiB, the largest coalesced
// receive. Callers treat an error as "no offload"; pre-5.0 kernels reject
// the option.
func SetReceiveOffload(c *net.UDPConn) error {
	return setUDPOption(c, udpGRO, 1, "setsockopt(UDP_GRO)")
}

// setUDPOption sets the IPPROTO_UDP-level socket option opt on c to val;
// call names the option in the error.
func setUDPOption(c *net.UDPConn, opt, val int, call string) error {
	rc, err := c.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	cerr := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, opt, val)
	})
	if cerr != nil {
		return cerr
	}
	if serr != nil {
		return os.NewSyscallError(call, serr)
	}
	return nil
}

// groCtlLen is the control buffer one receive needs for the UDP_GRO
// message: CMSG_SPACE(sizeof(int)), a header plus an 8-byte-aligned int.
const groCtlLen = syscall.SizeofCmsghdr + 8

// groSegment returns the segment size the UDP_GRO control message in ctl
// reports, or 0 when ctl holds none. ctl is the kernel's control data for
// one receive; it is walked defensively all the same, so a truncated or
// malformed header ends the walk instead of reading out of bounds.
func groSegment(ctl []byte) int {
	const hdr = syscall.SizeofCmsghdr // Len uint64, Level int32, Type int32
	for len(ctl) >= hdr {
		n := binary.NativeEndian.Uint64(ctl)
		if n < hdr || n > uint64(len(ctl)) {
			return 0
		}
		level := int32(binary.NativeEndian.Uint32(ctl[8:]))
		typ := int32(binary.NativeEndian.Uint32(ctl[12:]))
		if level == syscall.IPPROTO_UDP && typ == udpGRO {
			if n < hdr+4 {
				return 0
			}
			// The kernel reports gso_size, a 16-bit value, as an int.
			seg := int32(binary.NativeEndian.Uint32(ctl[hdr:]))
			if seg <= 0 || seg > 0xffff {
				return 0
			}
			return int(seg)
		}
		next := (n + 7) &^ 7 // CMSG_ALIGN on 64-bit
		if next >= uint64(len(ctl)) {
			return 0
		}
		ctl = ctl[next:]
	}
	return 0
}

// MaxSegments is the most size-byte segments one send may carry: the UDP
// payload ceiling (65507 bytes) divided by the segment size.
func MaxSegments(size int) int {
	const maxUDPPayload = 65507
	if size <= 0 {
		return 1
	}
	n := maxUDPPayload / size
	if n < 1 {
		return 1
	}
	return n
}
