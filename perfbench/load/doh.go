package load

import (
	"bufio"
	"crypto/tls"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"syscall"
	"time"
)

// DoH is a Target sending RFC 8484 POSTs over at most two kept-alive
// HTTP/2 connections, with a minimal HTTP/2 client of its own: literal
// HPACK request headers, connection-level flow control, and response
// bodies matched to requests by stream. Requests alternate between the
// connections. Like UDP it has no reader thread: Poll reads whatever the
// connections have received without blocking (see pollConn).
type DoH struct {
	Addr  string
	CAPEM []byte
	Conns int

	conns []*h2conn
	next  int

	deliver func([]byte, time.Time)
	epoch   int
}

// Connect opens the connections (TLS handshake, HTTP/2 preface and
// settings). Call it once before the first phase.
func (d *DoH) Connect() error {
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(d.CAPEM) {
		return errors.New("doh: bad CA certificate")
	}
	host, _, err := net.SplitHostPort(d.Addr)
	if err != nil {
		return err
	}
	n := d.Conns
	if n < 1 || n > 2 {
		n = 2
	}
	for i := 0; i < n; i++ {
		raw, err := net.Dial("tcp", d.Addr)
		if err != nil {
			return err
		}
		pc, err := newPollConn(raw.(*net.TCPConn))
		if err != nil {
			raw.Close()
			return err
		}
		tc := tls.Client(pc, &tls.Config{RootCAs: pool, NextProtos: []string{"h2"}, ServerName: host})
		if err := tc.Handshake(); err != nil {
			tc.Close()
			return err
		}
		if p := tc.ConnectionState().NegotiatedProtocol; p != "h2" {
			tc.Close()
			return fmt.Errorf("doh: negotiated %q, want h2", p)
		}
		pc.nonBlocking = true
		c := newH2Conn(tc, d)
		if err := c.start(); err != nil {
			tc.Close()
			return err
		}
		d.conns = append(d.conns, c)
	}
	return nil
}

// Open starts delivering responses to deliver; answers to requests sent
// before it are dropped.
func (d *DoH) Open(deliver func([]byte, time.Time)) error {
	d.deliver = deliver
	d.epoch++
	return nil
}

// Send posts each query on the next connection in turn, or the other one
// when that is at its stream or flow-control limit. It stops at the first
// query neither connection takes and reports how many it posted.
func (d *DoH) Send(pkts [][]byte) (int, error) {
	sent := 0
	var err error
	for _, pkt := range pkts {
		posted := false
		for range d.conns {
			c := d.conns[d.next%len(d.conns)]
			d.next++
			if posted = c.post(pkt, d.epoch) == nil; posted {
				break
			}
		}
		if !posted {
			err = errBusy
			break
		}
		sent++
	}
	for _, c := range d.conns {
		if c.dead {
			continue
		}
		if e := c.bw.Flush(); e != nil {
			c.dead = true
			c.failAll()
			err = e
		}
	}
	return sent, err
}

// Poll reads every frame the connections have received and delivers the
// responses they complete.
func (d *DoH) Poll() int {
	n := 0
	for _, c := range d.conns {
		n += c.poll()
	}
	return n
}

// Close stops delivery.
func (d *DoH) Close() { d.deliver = nil }

// Shutdown closes the connections.
func (d *DoH) Shutdown() {
	for _, c := range d.conns {
		c.tc.Close()
	}
	d.conns = nil
}

func (d *DoH) dispatch(epoch int, body []byte, at time.Time) int {
	if d.deliver == nil || epoch != d.epoch {
		return 0
	}
	d.deliver(body, at)
	return 1
}

// errWouldBlock is pollConn's "nothing to read yet". It is a temporary
// net.Error, so crypto/tls keeps a partly read record and resumes it on
// the next Read.
var errWouldBlock = wouldBlock{}

type wouldBlock struct{}

func (wouldBlock) Error() string   { return "doh: no data ready" }
func (wouldBlock) Timeout() bool   { return true }
func (wouldBlock) Temporary() bool { return true }

// pollConn is a TCP connection whose reads, once nonBlocking is set,
// return errWouldBlock instead of waiting for data. Writes block as
// usual.
type pollConn struct {
	*net.TCPConn
	raw         syscall.RawConn
	nonBlocking bool
}

func newPollConn(c *net.TCPConn) (*pollConn, error) {
	raw, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	return &pollConn{TCPConn: c, raw: raw}, nil
}

func (c *pollConn) Read(p []byte) (int, error) {
	if !c.nonBlocking {
		return c.TCPConn.Read(p)
	}
	var n int
	var errno error
	err := c.raw.Read(func(fd uintptr) bool {
		n, errno = syscall.Read(int(fd), p)
		return true // never wait
	})
	switch {
	case err != nil:
		return 0, err
	case errno == syscall.EAGAIN:
		return 0, errWouldBlock
	case errno != nil:
		return 0, errno
	case n == 0:
		return 0, io.EOF
	}
	return n, nil
}

// HTTP/2 frame types and flags (RFC 9113 §6).
const (
	frameData         = 0x0
	frameHeaders      = 0x1
	frameRSTStream    = 0x3
	frameSettings     = 0x4
	framePing         = 0x6
	frameGoAway       = 0x7
	frameWindowUpdate = 0x8

	flagEndStream  = 0x1
	flagAck        = 0x1
	flagEndHeaders = 0x4
	flagPadded     = 0x8
	flagPriority   = 0x20

	settingMaxStreams = 0x3
	settingEnablePush = 0x2
	settingInitWindow = 0x4

	recvWindow = 1 << 30
)

var errBusy = errors.New("doh: stream limit or flow-control window reached")

type h2stream struct {
	epoch int
	id    uint16 // DNS ID of the query
	ok    bool   // :status 200
	body  []byte
}

type h2conn struct {
	tc   *tls.Conn
	d    *DoH
	dead bool // the connection failed; its streams were failed

	bw    *bufio.Writer
	next  uint32
	hdr   []byte
	frame [9]byte

	in   []byte // received bytes not yet parsed into frames
	rbuf []byte

	streams    map[uint32]*h2stream
	maxStreams int
	sendWin    int64
	recvd      int64
}

func newH2Conn(tc *tls.Conn, d *DoH) *h2conn {
	return &h2conn{
		tc: tc, d: d,
		bw: bufio.NewWriterSize(tc, 32<<10), next: 1,
		in: make([]byte, 0, 64<<10), rbuf: make([]byte, 32<<10),
		streams: make(map[uint32]*h2stream), maxStreams: 100, sendWin: 65535,
	}
}

func (c *h2conn) start() error {
	c.bw.WriteString("PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n")
	settings := make([]byte, 0, 12)
	settings = binary.BigEndian.AppendUint16(settings, settingEnablePush)
	settings = binary.BigEndian.AppendUint32(settings, 0)
	settings = binary.BigEndian.AppendUint16(settings, settingInitWindow)
	settings = binary.BigEndian.AppendUint32(settings, recvWindow)
	c.writeFrame(frameSettings, 0, 0, settings)
	c.writeFrame(frameWindowUpdate, 0, 0, binary.BigEndian.AppendUint32(nil, recvWindow-65535))
	return c.bw.Flush()
}

func (c *h2conn) writeFrame(typ, flags byte, stream uint32, payload []byte) {
	f := c.frame[:]
	f[0], f[1], f[2] = byte(len(payload)>>16), byte(len(payload)>>8), byte(len(payload))
	f[3], f[4] = typ, flags
	binary.BigEndian.PutUint32(f[5:], stream)
	c.bw.Write(f)
	c.bw.Write(payload)
}

// appendLiteral appends an HPACK "literal header field without indexing"
// whose name is static-table entry idx, with a raw (non-Huffman) value.
func appendLiteral(dst []byte, idx int, value string) []byte {
	if idx < 15 {
		dst = append(dst, byte(idx))
	} else {
		dst = append(dst, 0x0f, byte(idx-15))
	}
	return append(append(dst, byte(len(value))), value...)
}

// post buffers one query as a HEADERS + DATA pair on a new stream; the
// caller flushes.
func (c *h2conn) post(pkt []byte, epoch int) error {
	if c.dead || len(c.streams) >= c.maxStreams || c.sendWin < int64(len(pkt)) {
		return errBusy
	}
	sid := c.next
	c.next += 2
	c.streams[sid] = &h2stream{epoch: epoch, id: binary.BigEndian.Uint16(pkt)}
	c.sendWin -= int64(len(pkt))

	h := c.hdr[:0]
	h = append(h, 0x83, 0x87) // :method POST, :scheme https
	h = appendLiteral(h, 4, "/dns-query")
	h = appendLiteral(h, 1, c.d.Addr)
	h = appendLiteral(h, 31, "application/dns-message") // content-type
	h = appendLiteral(h, 19, "application/dns-message") // accept
	h = appendLiteral(h, 28, strconv.Itoa(len(pkt)))    // content-length
	c.hdr = h
	c.writeFrame(frameHeaders, flagEndHeaders, sid, h)
	c.writeFrame(frameData, flagEndStream, sid, pkt)
	return nil
}

// poll reads what the connection has received without blocking, handles
// every complete frame, and reports how many responses it delivered. A
// connection that fails fails its open streams and is not used again.
func (c *h2conn) poll() int {
	if c.dead {
		return 0
	}
	got := false
	for {
		n, err := c.tc.Read(c.rbuf)
		c.in = append(c.in, c.rbuf[:n]...)
		got = got || n > 0
		if errors.Is(err, errWouldBlock) {
			break
		}
		if err != nil {
			c.dead = true
			return c.failAll()
		}
	}
	if !got {
		return 0
	}
	at := time.Now()
	delivered := 0
	in := c.in
	for len(in) >= 9 {
		n := int(in[0])<<16 | int(in[1])<<8 | int(in[2])
		if len(in) < 9+n {
			break
		}
		d, ok := c.handle(in[3], in[4], binary.BigEndian.Uint32(in[5:])&0x7fffffff, in[9:9+n], at)
		delivered += d
		if !ok {
			c.dead = true
			return delivered + c.failAll()
		}
		in = in[9+n:]
	}
	c.in = append(c.in[:0], in...)
	if err := c.bw.Flush(); err != nil { // acknowledgements and window updates
		c.dead = true
		return delivered + c.failAll()
	}
	return delivered
}

// handle handles one received frame and reports how many responses it
// delivered, and false when the server is going away.
func (c *h2conn) handle(typ, flags byte, sid uint32, p []byte, at time.Time) (int, bool) {
	switch typ {
	case frameData:
		c.noteReceived(len(p))
		if flags&flagPadded != 0 && len(p) > 0 {
			p = p[1 : len(p)-int(p[0])]
		}
		if s := c.streams[sid]; s != nil {
			s.body = append(s.body, p...)
		}
		if flags&flagEndStream != 0 {
			return c.finish(sid, at), true
		}
	case frameHeaders:
		if flags&flagPadded != 0 && len(p) > 0 {
			p = p[1 : len(p)-int(p[0])]
		}
		if flags&flagPriority != 0 && len(p) >= 5 {
			p = p[5:]
		}
		if s := c.streams[sid]; s != nil && s.body == nil {
			// The Go server sends :status 200 as static index 8.
			s.ok = len(p) > 0 && p[0] == 0x88
		}
		if flags&flagEndStream != 0 {
			return c.finish(sid, at), true
		}
	case frameRSTStream:
		return c.fail(sid, at), true
	case frameSettings:
		if flags&flagAck != 0 {
			break
		}
		for i := 0; i+6 <= len(p); i += 6 {
			if binary.BigEndian.Uint16(p[i:]) == settingMaxStreams {
				c.maxStreams = int(binary.BigEndian.Uint32(p[i+2:]))
			}
		}
		c.writeFrame(frameSettings, flagAck, 0, nil)
	case framePing:
		if flags&flagAck == 0 {
			c.writeFrame(framePing, flagAck, 0, p)
		}
	case frameGoAway:
		return 0, false
	case frameWindowUpdate:
		if sid == 0 && len(p) >= 4 {
			c.sendWin += int64(binary.BigEndian.Uint32(p) & 0x7fffffff)
		}
	}
	return 0, true
}

// noteReceived returns received DATA bytes to the server's send window
// once a quarter of ours is used.
func (c *h2conn) noteReceived(n int) {
	c.recvd += int64(n)
	if c.recvd < recvWindow/4 {
		return
	}
	c.writeFrame(frameWindowUpdate, 0, 0, binary.BigEndian.AppendUint32(nil, uint32(c.recvd)))
	c.recvd = 0
}

func (c *h2conn) take(sid uint32) *h2stream {
	s := c.streams[sid]
	delete(c.streams, sid)
	return s
}

// finish delivers a completed stream: its DNS body on HTTP 200,
// otherwise the transport-failure marker.
func (c *h2conn) finish(sid uint32, at time.Time) int {
	s := c.take(sid)
	if s == nil {
		return 0
	}
	if !s.ok || len(s.body) == 0 {
		return c.d.dispatch(s.epoch, failureMarker(s.id), at)
	}
	return c.d.dispatch(s.epoch, s.body, at)
}

func (c *h2conn) fail(sid uint32, at time.Time) int {
	if s := c.take(sid); s != nil {
		return c.d.dispatch(s.epoch, failureMarker(s.id), at)
	}
	return 0
}

func (c *h2conn) failAll() int {
	now := time.Now()
	n := 0
	for sid := range c.streams {
		n += c.fail(sid, now)
	}
	return n
}

// failureMarker is the two-byte "response" (just the query's ID) that
// tells Run a request failed below DNS: reset, non-200 or no body.
func failureMarker(id uint16) []byte { return []byte{byte(id >> 8), byte(id)} }
