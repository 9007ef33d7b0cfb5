package load

import "time"

// maxBatch bounds the datagrams moved per send or receive call.
const maxBatch = 64

// UDP is a Target over one connected UDP socket per phase. A fresh
// socket (new source port) per phase means a late answer to an earlier
// phase can never be taken for an answer to this one. The socket
// bypasses the Go netpoller: sends go out whole batches per sendmmsg,
// and Poll drains answers with non-blocking recvmmsg from the sending
// thread, which keeps the generator's cost per query under the server's.
type UDP struct {
	Addr string

	sock    *sock
	deliver func([]byte, time.Time)
	in      *readBufs
}

// Open dials a fresh socket.
func (u *UDP) Open(deliver func([]byte, time.Time)) error {
	s, err := dial(u.Addr)
	if err != nil {
		return err
	}
	u.sock, u.deliver, u.in = s, deliver, newReadBufs()
	return nil
}

// Poll delivers every answer already queued on the socket.
func (u *UDP) Poll() int { return u.sock.poll(u.in, u.deliver) }

// Send writes a batch of queries and reports how many went out.
func (u *UDP) Send(pkts [][]byte) (int, error) {
	sent := 0
	for sent < len(pkts) {
		n, err := u.sock.send(pkts[sent:])
		sent += n
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// Close closes the socket.
func (u *UDP) Close() {
	if u.sock != nil {
		u.sock.close()
		u.sock = nil
	}
}
