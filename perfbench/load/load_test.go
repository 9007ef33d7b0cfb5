package load

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"encdns/perfbench/workload"
)

// stubMode selects how the stub server misbehaves.
type stubMode int

const (
	stubCorrect   stubMode = iota
	stubLowerEcho          // echoes the question lower-cased
	stubWrongAddr          // answers hot names with another host's address
	stubSwapped            // sends each answer under the previous query's ID
)

// hostIndex maps canonical host names to their index.
var hostIndex = func() map[string]int {
	m := make(map[string]int, workload.NumHosts)
	for h := 0; h < workload.NumHosts; h++ {
		m[workload.HostName(h)] = h
	}
	return m
}()

// wireName renders a wire question's name in lower-case presentation form.
func wireName(q []byte) (string, int) {
	var b strings.Builder
	i := 0
	for q[i] != 0 {
		l := int(q[i])
		b.Write(bytes.ToLower(q[i+1 : i+1+l]))
		b.WriteByte('.')
		i += 1 + l
	}
	return b.String(), i + 1 + 4
}

// stubAnswer builds the stub's response to one query.
func stubAnswer(query []byte, mode stubMode) []byte {
	name, qlen := wireName(query[12:])
	question := append([]byte(nil), query[12:12+qlen]...)
	if mode == stubLowerEcho {
		question = bytes.ToLower(question)
	}
	h, ok := hostIndex[name]
	resp := []byte{query[0], query[1], 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0}
	if !ok {
		resp[3] |= 3 // NXDOMAIN
		resp[7] = 0
		return append(resp, question...)
	}
	if mode == stubWrongAddr {
		h = (h + 1) % workload.NumHosts
	}
	addr := workload.HostAddr(h).As4()
	resp = append(resp, question...)
	resp = append(resp, 0xc0, 0x0c, 0, 1, 0, 1, 0, 0, 1, 0x2c, 0, 4)
	return append(resp, addr[:]...)
}

// startStub serves stubAnswer on a loopback UDP socket until the test ends.
func startStub(t *testing.T, mode stubMode) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	go func() {
		buf := make([]byte, 1500)
		var prevID []byte
		for {
			n, addr, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			resp := stubAnswer(buf[:n], mode)
			if mode == stubSwapped {
				id := []byte{resp[0], resp[1]}
				if prevID == nil {
					prevID = id
					continue
				}
				resp[0], resp[1], prevID = prevID[0], prevID[1], id
			}
			_, _ = pc.WriteTo(resp, addr)
		}
	}()
	return pc.LocalAddr().String()
}

func runStub(t *testing.T, mode stubMode, mix workload.Mix) *Result {
	t.Helper()
	res, err := Run(&UDP{Addr: startStub(t, mode)}, Phase{Mix: mix, Seed: 7, Name: "stub", Rate: 2000, Dur: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent < 100 {
		t.Fatalf("sent only %d queries", res.Sent)
	}
	return res
}

func TestCorrectStubPasses(t *testing.T) {
	for _, mix := range []workload.Mix{workload.HotZipf, workload.Miss90} {
		res := runStub(t, stubCorrect, mix)
		if res.Wrong != 0 || res.CaseLost != 0 || res.Stray != 0 || res.OK+res.Timeouts != res.Sent || res.OK == 0 {
			t.Errorf("mix %d: sent %d ok %d wrong %d (%v) case-lost %d stray %d", mix, res.Sent, res.OK, res.Wrong, res.FirstWrong, res.CaseLost, res.Stray)
		}
	}
}

func TestWrongAddressIsCaught(t *testing.T) {
	res := runStub(t, stubWrongAddr, workload.HotZipf)
	if res.Wrong != res.Sent-res.Timeouts || res.OK != 0 {
		t.Fatalf("sent %d wrong %d ok %d: a wrong address must fail every answer", res.Sent, res.Wrong, res.OK)
	}
}

func TestLowerCasedEchoIsCounted(t *testing.T) {
	// A name the 0x20 draw left all lower-case (one in 2^12 or so) is
	// unchanged by lower-casing; every other answer must be counted.
	// The workload guards fail a run with any such answer where every
	// answer should come from a template.
	res := runStub(t, stubLowerEcho, workload.HotZipf)
	if res.Wrong != 0 || res.CaseLost == 0 || res.CaseLost < res.OK*99/100 {
		t.Fatalf("sent %d ok %d case-lost %d wrong %d", res.Sent, res.OK, res.CaseLost, res.Wrong)
	}
}

func TestSwappedAnswerIsCaught(t *testing.T) {
	// Each answer goes out under the ID of the query before it, as a
	// server that mixed up its buffers would send it: no echoed question
	// matches a query sent with that ID, so every one is wrong (unless
	// two queries in a row asked the same hot name).
	res := runStub(t, stubSwapped, workload.Miss90)
	if res.Wrong+res.OK != res.Sent-1 || res.OK > res.Sent/100 || res.Stray != 0 {
		t.Fatalf("sent %d wrong %d ok %d stray %d", res.Sent, res.Wrong, res.OK, res.Stray)
	}
}

func TestWarmCatchesWrongAddress(t *testing.T) {
	qs := workload.WarmupQuestions(1)[:50]
	hosts := make([]int, len(qs))
	for i := range hosts {
		hosts[i] = i
	}
	if err := Warm(&UDP{Addr: startStub(t, stubCorrect)}, qs, hosts, 8); err != nil {
		t.Fatalf("correct stub: %v", err)
	}
	if err := Warm(&UDP{Addr: startStub(t, stubWrongAddr)}, qs, hosts, 8); err == nil {
		t.Fatal("wrong addresses passed the warm-up")
	}
}

// wrapTarget answers every query at once through Poll, except the very
// first, whose answer it holds back until that query's ID has been used
// again wraps times: the late answer of an overloaded server.
type wrapTarget struct {
	wraps   int
	deliver func([]byte, time.Time)
	queue   [][]byte
	held    []byte
	reused  int
}

func (f *wrapTarget) Open(deliver func([]byte, time.Time)) error { f.deliver = deliver; return nil }

func (f *wrapTarget) Send(pkts [][]byte) (int, error) {
	for _, p := range pkts {
		a := stubAnswer(p, stubCorrect)
		if f.held == nil {
			f.held = a
			continue
		}
		if p[0] == f.held[0] && p[1] == f.held[1] {
			if f.reused++; f.reused == f.wraps {
				f.queue = append(f.queue, f.held)
			}
		}
		f.queue = append(f.queue, a)
	}
	return len(pkts), nil
}

func (f *wrapTarget) Poll() int {
	n := len(f.queue)
	for _, r := range f.queue {
		f.deliver(r, time.Now())
	}
	f.queue = f.queue[:0]
	return n
}

func (f *wrapTarget) Close() {}

func TestLateAnswerAfterWrapIsStray(t *testing.T) {
	for wraps := 1; wraps <= 2; wraps++ {
		res, err := Run(&wrapTarget{wraps: wraps}, Phase{Mix: workload.Miss90, Seed: 7, Name: "wrap", Rate: 400000, Dur: 400 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		// Answers are instant, but a slow (race-enabled) generator may
		// send some too late for them to count as in time.
		if res.Sent <= wraps<<16 || res.Stray != 1 || res.Wrong != 0 || res.OK+res.Timeouts != res.Sent || res.OK == 0 {
			t.Fatalf("%d wraps: sent %d ok %d stray %d wrong %d (%v)", wraps, res.Sent, res.OK, res.Stray, res.Wrong, res.FirstWrong)
		}
	}
}
