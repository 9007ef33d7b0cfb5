package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math/bits"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/doh"
	"encdns/internal/resolver"
	"encdns/internal/transport"
)

// Span names. Each names the public interface call the span times.
const (
	spanServe      = "resolver.serve"     // ServeDNS on the handler given to dns53/doh
	spanAppend     = "resolver.append"    // AppendResponse on the same handler
	spanExchange   = "upstream.exchange"  // resolver → authoritative exchange
	spanWait       = "upstream.wait"      // the simulated network delay inside it
	spanHTTP       = "doh.http"           // the DoH http.Handler
	spanDoHSelf    = "doh.self"           // doh.http minus its inner handler spans
	spanForward    = "cluster.forward"    // cluster.Node → peer Forward.Exchange
	spanPeerServe  = "cluster.peer_serve" // a peer's handler answering a hop
	spanNameCount  = 8
	maxKeptSpans   = 1 << 16
	histSubBuckets = 64
)

var spanNames = [spanNameCount]string{spanServe, spanAppend, spanExchange, spanWait,
	spanHTTP, spanDoHSelf, spanForward, spanPeerServe}

func spanIndex(name string) int {
	for i, n := range spanNames {
		if n == name {
			return i
		}
	}
	panic("unknown span " + name)
}

// span is one timed call: name, start and end in ns since the tracer's
// epoch, its own id, the id of the span that caused it (0 for a root),
// and the request id shared by every span of one query.
type span struct {
	Name   string `json:"name"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Req    uint32 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// hist is a log-linear histogram of nanosecond durations: 64 linear
// sub-buckets per power of two, so any quantile is within ~1.6%.
type hist struct {
	counts [64 * histSubBuckets]atomic.Uint64
	total  atomic.Uint64
}

func bucketOf(ns int64) int {
	if ns < histSubBuckets {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 7 // ns >> e is in [64, 128)
	return (e+1)*histSubBuckets + int(uint64(ns)>>e) - histSubBuckets
}

func bucketMid(b int) float64 {
	if b < histSubBuckets {
		return float64(b)
	}
	e := b/histSubBuckets - 1
	m := b%histSubBuckets + histSubBuckets
	return (float64(m) + 0.5) * float64(uint64(1)<<e)
}

func (h *hist) observe(ns int64) {
	h.counts[bucketOf(ns)].Add(1)
	h.total.Add(1)
}

func (h *hist) quantile(q float64) float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(q*float64(n-1)) + 1
	var seen uint64
	for b := range h.counts {
		seen += h.counts[b].Load()
		if seen >= rank {
			return bucketMid(b)
		}
	}
	return 0
}

func (h *hist) reset() {
	for b := range h.counts {
		h.counts[b].Store(0)
	}
	h.total.Store(0)
}

// tracer keeps spans in memory (the first maxKeptSpans after each reset,
// written out at exit) and a duration histogram per span name over all
// of them.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint32
	reqs  atomic.Uint32
	hists [spanNameCount]hist

	mu    sync.Mutex
	kept  []span
	drops uint64

	queueMax, goroutinesMax atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), kept: make([]span, 0, maxKeptSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(name string, id, parent, req uint32, start, end int64) {
	t.hists[spanIndex(name)].observe(end - start)
	t.mu.Lock()
	if len(t.kept) < cap(t.kept) {
		t.kept = append(t.kept, span{Name: name, ID: id, Parent: parent, Req: req, Start: start, End: end})
	} else {
		t.drops++
	}
	t.mu.Unlock()
}

func (t *tracer) reset() {
	for i := range t.hists {
		t.hists[i].reset()
	}
	t.mu.Lock()
	t.kept = t.kept[:0]
	t.drops = 0
	t.mu.Unlock()
	t.queueMax.Store(0)
	t.goroutinesMax.Store(0)
}

// spanStat is one span name's summary in a trace report.
type spanStat struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_ns"`
	P99   float64 `json:"p99_ns"`
}

func (t *tracer) report() map[string]any {
	stats := make(map[string]spanStat, spanNameCount)
	for i, name := range spanNames {
		h := &t.hists[i]
		stats[name] = spanStat{Count: h.total.Load(), P50: h.quantile(0.5), P99: h.quantile(0.99)}
	}
	t.mu.Lock()
	kept, drops := len(t.kept), t.drops
	t.mu.Unlock()
	return map[string]any{
		"spans":          stats,
		"kept":           kept,
		"dropped":        drops,
		"queue_max":      t.queueMax.Load(),
		"goroutines_max": t.goroutinesMax.Load(),
	}
}

// write dumps the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.kept {
		if err := enc.Encode(&t.kept[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanRef is the current span carried in ctx, so spans started further
// down the call (upstream exchanges, cluster forwards) find their parent
// and request id.
type spanRef struct{ id, req uint32 }

type spanKey struct{}

func fromCtx(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// tracedHandler times ServeDNS on the handler given to a server.
type tracedHandler struct {
	t     *tracer
	inner dns53.Handler
	name  string
	// parent, when set, is the enclosing span (a DoH request).
	parent spanRef
	// child accumulates this request's handler time (for doh.self).
	child int64
}

func (h *tracedHandler) ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	ref := spanRef{id: h.t.ids.Add(1), req: h.parent.req}
	if ref.req == 0 {
		ref.req = h.t.reqs.Add(1)
	}
	start := h.t.now()
	resp, err := h.inner.ServeDNS(context.WithValue(ctx, spanKey{}, ref), q)
	end := h.t.now()
	h.t.record(h.name, ref.id, h.parent.id, ref.req, start, end)
	if h.parent.id != 0 {
		h.child += end - start // per-request wrapper: one goroutine
	}
	return resp, err
}

// tracedAppender adds the AppendResponse span, so wrapping never hides
// the template fast path that dns53 and doh type-assert for.
type tracedAppender struct {
	*tracedHandler
	ra dns53.ResponseAppender
}

func (h *tracedAppender) AppendResponse(dst []byte, q *dnswire.Message, rawQ []byte) ([]byte, int64, bool) {
	id := h.t.ids.Add(1)
	req := h.parent.req
	if req == 0 {
		req = h.t.reqs.Add(1)
	}
	start := h.t.now()
	out, ttl, ok := h.ra.AppendResponse(dst, q, rawQ)
	end := h.t.now()
	if ok {
		// A declined fast path falls through to ServeDNS, which has its
		// own span; only answered appends are template serves.
		h.t.record(spanAppend, id, h.parent.id, req, start, end)
		if h.parent.id != 0 {
			h.child += end - start
		}
	}
	return out, ttl, ok
}

// wrapHandler returns inner with ServeDNS (and AppendResponse, when inner
// has it) timed under name.
func wrapHandler(t *tracer, inner dns53.Handler, name string, parent spanRef) dns53.Handler {
	th := &tracedHandler{t: t, inner: inner, name: name, parent: parent}
	if ra, ok := inner.(dns53.ResponseAppender); ok {
		return &tracedAppender{tracedHandler: th, ra: ra}
	}
	return th
}

// tracedMulti times exchanges through an endpoint-addressed exchanger
// (the resolver's upstream, a cluster node's Forward) under the span in
// ctx.
type tracedMulti struct {
	t     *tracer
	inner transport.Multi
	name  string
}

func (m *tracedMulti) Exchange(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
	ref := fromCtx(ctx)
	id := m.t.ids.Add(1)
	start := m.t.now()
	resp, err := m.inner.Exchange(context.WithValue(ctx, spanKey{}, spanRef{id: id, req: ref.req}), q, server)
	m.t.record(m.name, id, ref.id, ref.req, start, m.t.now())
	return resp, err
}

// tracedDoH times the DoH http.Handler and, per request, the inner DNS
// handler calls it makes, so doh.self is HTTP time minus DNS time of the
// same request.
type tracedDoH struct {
	t   *tracer
	dns dns53.Handler
}

func (d *tracedDoH) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ref := spanRef{id: d.t.ids.Add(1), req: d.t.reqs.Add(1)}
	inner := wrapHandler(d.t, d.dns, spanServe, ref)
	start := d.t.now()
	(&doh.Handler{DNS: inner}).ServeHTTP(w, r)
	end := d.t.now()
	d.t.record(spanHTTP, ref.id, 0, ref.req, start, end)
	var child int64
	switch h := inner.(type) {
	case *tracedAppender:
		child = h.child
	case *tracedHandler:
		child = h.child
	}
	d.t.hists[spanIndex(spanDoHSelf)].observe(end - start - child)
}

// sample polls the queue-depth and goroutine gauges for their maxima
// until stop closes.
func (t *tracer) sample(queueDepth func() int64, stop <-chan struct{}) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			setMax(&t.queueMax, queueDepth())
			setMax(&t.goroutinesMax, int64(goroutines()))
		}
	}
}

func setMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// countingListener counts accepted connections and the most open at once.
type countingListener struct {
	net.Listener
	open, max, total atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.total.Add(1)
	setMax(&l.max, l.open.Add(1))
	return &countedConn{Conn: c, l: l}, nil
}

type countedConn struct {
	net.Conn
	l    *countingListener
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.l.open.Add(-1) })
	return c.Conn.Close()
}

var _ resolver.Exchanger = (*tracedMulti)(nil)
