// Package load is the benchmark's load generator: seeded open-loop
// Poisson phases and a closed-loop warm-up over Do53/UDP or DoH
// (HTTP/2 + TLS), with every answer verified against the workload's zone
// data. It shares no code with the program it measures, so a change to
// the program's clients cannot move the measuring tool. One thread does
// everything: it sends each query when it is due and, between sends,
// polls the target for answers without blocking, so no reader thread
// waits to be woken and every answer is stamped as soon as it is read.
// It runs on Linux (amd64, arm64) only.
package load

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"encdns/perfbench/workload"
)

// Timeout is how long a query may stay unanswered before it counts as
// lost. Run does not retransmit: a stub's first retry comes after a
// second or more, and retransmitting sooner turns a stall of the server
// into extra load that keeps it stalled.
const Timeout = 300 * time.Millisecond

// Target is one way of reaching the server: a phase opens it with the
// function that receives every response, sends through it, polls it for
// responses, and closes it, after which no more responses are delivered.
// Everything runs on the caller's thread.
type Target interface {
	Open(deliver func(resp []byte, at time.Time)) error
	// Send sends a batch of queries and reports how many went out.
	Send(pkts [][]byte) (int, error)
	// Poll delivers every response already received, without blocking,
	// and reports how many.
	Poll() int
	Close()
}

// Phase is one open-loop phase: which stream, at what rate, for how long.
type Phase struct {
	Mix  workload.Mix
	Seed uint64
	Name string
	Rate float64
	Dur  time.Duration
}

// Result is what one phase measured.
type Result struct {
	Sent     int
	Fresh    int // queries for fresh (NXDOMAIN) labels
	OK       int
	Timeouts int
	Errors   int // send errors and failed DoH requests
	Wrong    int // answers that failed verification
	// Stray counts late answers to queries sent earlier with the same
	// ID, before the 16-bit ID space wrapped. They answer no query still
	// waiting; only overload makes a server that late.
	Stray int
	// CaseLost counts otherwise-correct answers whose echoed question
	// lost the query's 0x20 case (workload.ErrEchoCase).
	CaseLost int
	// FirstWrong describes the first verification failure.
	FirstWrong error
	// Lat is each verified answer's latency from when its query was due;
	// DueAt is when that query was due, both in ns from phase start.
	Lat, DueAt []int64
	// Late is how far behind schedule each query was sent, in ns.
	Late []int64
	// Hash fingerprints the query stream sent.
	Hash uint64
	// GenCPU is the generator thread's busy time: sending, and reading
	// and checking answers.
	GenCPU time.Duration
	Wall   time.Duration
}

// Failed counts every query that did not get a verified answer in time.
func (r *Result) Failed() int { return r.Timeouts + r.Errors + r.Wrong }

// FailRatio is Failed over Sent.
func (r *Result) FailRatio() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Failed()) / float64(r.Sent)
}

func (r *Result) wrong(err error) {
	r.Wrong++
	if r.FirstWrong == nil {
		r.FirstWrong = err
	}
}

// slot is one query ID and the query now using it.
type slot struct {
	pending bool
	seq     int // the query's place in the phase's stream
	due     int64
	host    int
}

// slotTables recycles the 64 Ki-entry slot tables.
var slotTables = sync.Pool{New: func() any { return new([1 << 16]slot) }}

// history holds every question a phase sent, in order, so that an answer
// can be traced to any query that used its ID.
type history struct {
	buf  []byte
	ends []int
}

func (h *history) add(q []byte) {
	h.buf = append(h.buf, q...)
	h.ends = append(h.ends, len(h.buf))
}

// question returns the question of query seq, or nil if it was not sent.
func (h *history) question(seq int) []byte {
	if seq >= len(h.ends) {
		return nil
	}
	start := 0
	if seq > 0 {
		start = h.ends[seq-1]
	}
	return h.buf[start:h.ends[seq]]
}

// echoes reports whether resp echoes question q apart from the case of
// the name.
func echoes(resp, q []byte) bool {
	return len(q) > 0 && len(resp) >= 12+len(q) && workload.SameQuestion(resp[12:12+len(q)], q)
}

// Run drives one open-loop phase against tgt: queries go out when they
// are due regardless of answers, and each is timed from when it was due,
// so a stall in the server (or generator) shows in the latency of every
// query it delays. It spins on one thread, sending each query the moment
// it is due and polling for answers in between, so a sleeping sender
// never adds to measured latency.
func Run(tgt Target, p Phase) (*Result, error) {
	res := &Result{}
	table := slotTables.Get().(*[1 << 16]slot)
	defer slotTables.Put(table)
	slots := table[:]
	clear(slots)
	expect := int(p.Rate*p.Dur.Seconds()) + 64
	sent := history{buf: make([]byte, 0, expect*48), ends: make([]int, 0, expect)}
	pending := 0
	var start time.Time
	// deliver matches an answer to the query waiting on its ID by the
	// echoed question. An answer that echoes a question sent earlier
	// with the same ID is stray; one that echoes no question ever sent
	// with its ID is wrong.
	deliver := func(resp []byte, at time.Time) {
		if len(resp) < 2 {
			res.wrong(workload.ErrShort)
			return
		}
		id := uint16(resp[0])<<8 | uint16(resp[1])
		s := &slots[id]
		if len(resp) == 2 { // the DoH target's failure marker
			if s.pending {
				s.pending = false
				pending--
			}
			res.Errors++
			return
		}
		if q := sent.question(s.seq); s.pending && echoes(resp, q) {
			s.pending = false
			pending--
			lat := at.Sub(start).Nanoseconds() - s.due
			err := workload.Check(resp, id, q, s.host)
			if errors.Is(err, workload.ErrEchoCase) {
				res.CaseLost++
				err = nil
			}
			switch {
			case err != nil:
				res.wrong(err)
			case lat > Timeout.Nanoseconds():
				res.Timeouts++
			default:
				res.OK++
				res.Lat = append(res.Lat, lat)
				res.DueAt = append(res.DueAt, s.due)
			}
			return
		}
		for k := s.seq - 1<<16; k >= 0; k -= 1 << 16 {
			if echoes(resp, sent.question(k)) {
				res.Stray++
				return
			}
		}
		res.wrong(fmt.Errorf("%w: no query with ID %d asked it", workload.ErrEcho, id))
	}
	if err := tgt.Open(deliver); err != nil {
		return nil, err
	}
	stream := workload.NewStream(p.Mix, p.Seed, p.Name, p.Rate)
	res.Lat = make([]int64, 0, expect)
	res.DueAt = make([]int64, 0, expect)
	res.Late = make([]int64, 0, expect)
	bufs := make([][]byte, maxBatch)
	for i := range bufs {
		bufs[i] = make([]byte, 0, 300)
	}
	ids := make([]uint16, maxBatch)
	dues := make([]time.Duration, maxBatch)
	// The spinning sender keeps one thread to itself.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var q workload.Query
	stream.Next(&q)
	var busy time.Duration
	start = time.Now()
	for seq := 0; q.Due < p.Dur; {
		t0 := time.Now()
		if tgt.Poll() > 0 {
			busy += time.Since(t0)
		}
		now := time.Since(start)
		if q.Due > now {
			continue
		}
		t0 = time.Now()
		// Send everything already due in one batch.
		n := 0
		for n < maxBatch && q.Due < p.Dur && q.Due <= now {
			id := uint16(seq)
			s := &slots[id]
			if s.pending {
				res.Timeouts++ // unanswered for a whole ID cycle
				pending--
			}
			*s = slot{pending: true, seq: seq, due: q.Due.Nanoseconds(), host: q.Host}
			sent.add(q.Question)
			seq++
			pending++
			res.Sent++
			if q.Host < 0 {
				res.Fresh++
			}
			bufs[n] = workload.AppendQuery(bufs[n][:0], id, q.Question)
			ids[n], dues[n] = id, q.Due
			n++
			stream.Next(&q)
		}
		sentAt := time.Since(start)
		for _, due := range dues[:n] {
			res.Late = append(res.Late, int64(sentAt-due))
		}
		// Queries Send did not send count as errors; its error adds
		// nothing to that.
		if done, _ := tgt.Send(bufs[:n]); done < n {
			for i := done; i < n; i++ {
				if s := &slots[ids[i]]; s.pending && s.due == dues[i].Nanoseconds() {
					s.pending = false
					pending--
					res.Errors++
				}
			}
		}
		busy += time.Since(t0)
	}
	res.Hash = stream.Hash()
	// Wait for stragglers, then count what is still out as lost.
	for deadline := time.Now().Add(Timeout); pending > 0 && time.Now().Before(deadline); {
		tgt.Poll()
	}
	tgt.Close()
	res.Wall = time.Since(start)
	res.GenCPU = busy
	res.Timeouts += pending
	return res, nil
}

// Warm sends every question once in a closed loop with window queries in
// flight, resending a query unanswered after Timeout up to twice, and
// verifies every answer (a lost 0x20 case aside: every warm-up query is
// a miss, and the program echoes the case only on cache hits). It
// returns the first failure.
func Warm(tgt Target, questions [][]byte, hosts []int, window int) error {
	if len(questions) > 1<<16 {
		return fmt.Errorf("warm-up of %d questions exceeds the ID space", len(questions))
	}
	// Query i uses ID i.
	sentAt := make(map[uint16]time.Time, window)
	tries := make([]int, len(questions))
	answered := 0
	var failure error
	deliver := func(resp []byte, _ time.Time) {
		if len(resp) < 2 {
			failure = workload.ErrShort
			return
		}
		id := uint16(resp[0])<<8 | uint16(resp[1])
		i := int(id)
		_, out := sentAt[id]
		if !out && (i >= len(questions) || tries[i] < 2) {
			failure = fmt.Errorf("warm-up: unexpected answer with ID %d", id)
			return
		}
		if err := workload.Check(resp, id, questions[i], hosts[i]); err != nil && !errors.Is(err, workload.ErrEchoCase) {
			failure = fmt.Errorf("warm-up answer for %q: %w", questions[i], err)
			return
		}
		if out { // not a second answer to a resent query
			delete(sentAt, id)
			answered++
		}
	}
	if err := tgt.Open(deliver); err != nil {
		return err
	}
	defer tgt.Close()
	pkt := [][]byte{make([]byte, 0, 512)}
	send := func(i int) error {
		sentAt[uint16(i)] = time.Now()
		tries[i]++
		pkt[0] = workload.AppendQuery(pkt[0][:0], uint16(i), questions[i])
		_, err := tgt.Send(pkt)
		return err
	}
	next := 0
	lastScan := time.Now()
	for answered < len(questions) {
		for len(sentAt) < window && next < len(questions) {
			if err := send(next); err != nil {
				return err
			}
			next++
		}
		tgt.Poll()
		if failure != nil {
			return failure
		}
		if now := time.Now(); now.Sub(lastScan) >= 10*time.Millisecond {
			lastScan = now
			for id, at := range sentAt {
				if now.Sub(at) < Timeout {
					continue
				}
				if i := int(id); tries[i] >= 3 {
					return fmt.Errorf("warm-up query %d unanswered after %d tries", i, tries[i])
				}
				if err := send(int(id)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Quantile returns the q-quantile of v (nearest rank); v is sorted in
// place.
func Quantile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	if !slices.IsSorted(v) {
		slices.Sort(v)
	}
	i := int(q*float64(len(v)-1) + 0.5)
	return float64(v[i])
}
