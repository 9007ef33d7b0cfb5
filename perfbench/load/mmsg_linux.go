//go:build linux && (amd64 || arm64)

package load

import (
	"net"
	"syscall"
	"time"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// batchVec is preallocated sendmmsg/recvmmsg plumbing.
type batchVec struct {
	hdrs []mmsghdr
	iovs []syscall.Iovec
}

func (v *batchVec) set(bufs [][]byte) int {
	n := min(len(bufs), maxBatch)
	if v.hdrs == nil {
		v.hdrs = make([]mmsghdr, maxBatch)
		v.iovs = make([]syscall.Iovec, maxBatch)
	}
	for i := 0; i < n; i++ {
		v.iovs[i].Base = &bufs[i][:1][0]
		v.iovs[i].SetLen(len(bufs[i]))
		v.hdrs[i] = mmsghdr{}
		v.hdrs[i].hdr.Iov = &v.iovs[i]
		v.hdrs[i].hdr.Iovlen = 1
	}
	return n
}

// sock is a connected kernel UDP socket outside the netpoller: sends
// block, reads never do.
type sock struct {
	fd  int
	out batchVec
}

func dial(addr string) (*sock, error) {
	ua, err := net.ResolveUDPAddr("udp4", addr)
	if err != nil {
		return nil, err
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, err
	}
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4<<20)
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, 4<<20)
	sa := &syscall.SockaddrInet4{Port: ua.Port}
	copy(sa.Addr[:], ua.IP.To4())
	if err := syscall.Connect(fd, sa); err != nil {
		syscall.Close(fd)
		return nil, err
	}
	return &sock{fd: fd}, nil
}

func mmsg(trap uintptr, fd int, v *batchVec, n int, flags int) (int, syscall.Errno) {
	r, _, e := syscall.Syscall6(trap, uintptr(fd), uintptr(unsafe.Pointer(&v.hdrs[0])), uintptr(n), uintptr(flags), 0, 0)
	return int(r), e
}

// send writes up to maxBatch datagrams in one sendmmsg.
func (s *sock) send(pkts [][]byte) (int, error) {
	n := s.out.set(pkts)
	for {
		sent, errno := mmsg(sysSendmmsg, s.fd, &s.out, n, 0)
		switch errno {
		case 0:
			return sent, nil
		case syscall.EINTR:
			continue
		}
		return 0, errno
	}
}

// readBufs are a socket's receive buffers and their vectors.
type readBufs struct {
	v    batchVec
	bufs [][]byte
}

func newReadBufs() *readBufs {
	in := &readBufs{bufs: make([][]byte, maxBatch)}
	for i := range in.bufs {
		in.bufs[i] = make([]byte, 4096)
	}
	in.v.set(in.bufs)
	return in
}

// recv takes up to maxBatch queued datagrams in one non-blocking
// recvmmsg.
func (s *sock) recv(in *readBufs) (int, syscall.Errno) {
	for i := range in.v.hdrs {
		in.v.iovs[i].SetLen(len(in.bufs[i]))
	}
	return mmsg(sysRecvmmsg, s.fd, &in.v, maxBatch, syscall.MSG_DONTWAIT)
}

// poll delivers every datagram already queued, without blocking. An
// error (nothing queued, EINTR, or an ICMP error on the connected socket)
// ends the poll; the next one reads on.
func (s *sock) poll(in *readBufs, deliver func([]byte, time.Time)) int {
	total := 0
	for {
		n, errno := s.recv(in)
		if errno != 0 || n <= 0 {
			return total
		}
		at := time.Now()
		for i := 0; i < n; i++ {
			deliver(in.bufs[i][:in.v.hdrs[i].len], at)
		}
		total += n
		if n < maxBatch {
			return total
		}
	}
}

func (s *sock) close() { syscall.Close(s.fd) }
