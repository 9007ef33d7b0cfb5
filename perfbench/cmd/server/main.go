// Command server is the benchmark's serving stack, run as its own
// process so the load generator is never counted in its CPU. It wires the
// public layers the way cmd/dohserver does — udpbatch sockets → dns53
// worker pool → resolver.Recursive + Cache over an authdns hierarchy,
// plus doh.Handler behind net/http (doh-hot) or three cluster.Nodes
// forwarding over a transport.Pool (cluster-fwd) — over the benchmark's
// own zone data, with a simulated network delay on every authoritative
// exchange.
//
// It prints one JSON line with its listen addresses, then answers
// commands read from stdin, one per line, with one JSON line each:
//
//	snap    counters from obs.Default() and runtime/metrics
//	reset   clear the trace histograms and maxima (traced runs)
//	report  span summaries and sampled maxima (traced runs)
//	quit    shut down in order, write spans, exit
//
// End of input also shuts it down, so it never outlives the benchmark.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"encoding/pem"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/netip"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/certs"
	"encdns/internal/cluster"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/doh"
	"encdns/internal/monitor"
	"encdns/internal/obs"
	"encdns/internal/resolver"
	"encdns/internal/transport"
	"encdns/internal/udpbatch"

	"encdns/perfbench/cpus"
	"encdns/perfbench/workload"
)

// Simulated authoritative round trips: every zone has one fast server
// and one 8× slower one, as in the resolver's BenchmarkColdWalk.
const (
	fastDelay = time.Millisecond
	slowDelay = 8 * time.Millisecond
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench server:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name      = flag.String("workload", "udp-hot", "workload to serve")
		traced    = flag.Bool("trace", false, "wrap every layer interface in timing spans")
		spansPath = flag.String("spans", "", "write the kept spans here as JSON lines at exit")
		cpuList   = flag.String("cpus", "", "pin the process to these CPUs (comma-separated)")
	)
	flag.Parse()
	if *cpuList != "" {
		set := cpus.Parse(*cpuList)
		if err := cpus.Pin(set); err != nil {
			return err
		}
		runtime.GOMAXPROCS(len(set))
	}
	spec, err := workload.Lookup(*name)
	if err != nil {
		return err
	}
	var tr *tracer
	if *traced {
		tr = newTracer()
	}
	st, err := start(spec, tr)
	if err != nil {
		return err
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(st.ready); err != nil {
		return err
	}
	stopSampler := make(chan struct{})
	if tr != nil {
		depth := obs.Default().Gauge("dns53_udp_worker_queue_depth", "")
		go tr.sample(depth.Value, stopSampler)
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		var reply any
		switch in.Text() {
		case "snap":
			reply = snapshot(st)
		case "reset":
			if tr != nil {
				tr.reset()
			}
			reply = map[string]bool{"ok": true}
		case "report":
			if tr != nil {
				reply = tr.report()
			} else {
				reply = map[string]bool{"traced": false}
			}
		case "quit":
			goto done
		default:
			reply = map[string]string{"error": "unknown command " + in.Text()}
		}
		if err := out.Encode(reply); err != nil {
			return err
		}
	}
done:
	close(stopSampler)
	st.shutdown()
	if tr != nil && *spansPath != "" {
		return tr.write(*spansPath)
	}
	return nil
}

// ready is the first line the server prints.
type ready struct {
	UDP   string `json:"udp"`
	DoH   string `json:"doh,omitempty"`
	CAPEM string `json:"ca_pem,omitempty"`
}

type stack struct {
	ready      ready
	servers    []*dns53.Server
	nodes      []*cluster.Node
	pools      []*transport.Pool
	recs       []*resolver.Recursive
	httpSrv    *http.Server
	dohConns   *countingListener
	stopProbes context.CancelFunc
}

// start builds and starts the stack for spec.
func start(spec workload.Spec, tr *tracer) (*stack, error) {
	h := buildHierarchy()
	var upstream resolver.Exchanger = &delayedUpstream{reg: h.Registry, delay: delays(h.Registry), t: tr}
	if tr != nil {
		upstream = &tracedMulti{t: tr, inner: upstream, name: spanExchange}
	}
	newRecursive := func() *resolver.Recursive {
		rec := &resolver.Recursive{
			Exchange:         upstream,
			Roots:            h.RootServers,
			Cache:            resolver.NewCache(spec.CacheEntries, nil),
			Infra:            resolver.NewInfra(nil),
			Hedge:            true,
			PrefetchFraction: 0.1,
		}
		return rec
	}
	st := &stack{}
	if spec.Cluster {
		return st, st.startCluster(newRecursive, tr)
	}
	rec := newRecursive()
	st.recs = append(st.recs, rec)
	var handler dns53.Handler = rec
	if tr != nil {
		handler = wrapHandler(tr, rec, spanServe, spanRef{})
	}
	addr, err := st.serveUDP(handler)
	if err != nil {
		return nil, err
	}
	st.ready.UDP = addr
	if spec.DoH {
		if err := st.startDoH(rec, tr); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// serveUDP starts a dns53 server for handler on one loopback udpbatch
// socket and returns its address.
func (st *stack) serveUDP(handler dns53.Handler) (string, error) {
	pcs, err := udpbatch.Listen("udp", "127.0.0.1:0", 1)
	if err != nil {
		return "", err
	}
	srv := &dns53.Server{Handler: handler}
	st.servers = append(st.servers, srv)
	for _, pc := range pcs {
		setBuffers(pc)
		go func() { _ = srv.ServeUDP(pc) }()
	}
	return pcs[0].LocalAddr().String(), nil
}

// startDoH serves RFC 8484 over HTTP/2 + TLS in front of rec.
func (st *stack) startDoH(rec *resolver.Recursive, tr *tracer) error {
	ca, err := certs.NewCA(0)
	if err != nil {
		return err
	}
	tlsCfg, err := ca.ServerConfig([]string{"localhost"}, []net.IP{net.ParseIP("127.0.0.1")})
	if err != nil {
		return err
	}
	var h http.Handler = &doh.Handler{DNS: rec}
	if tr != nil {
		h = &tracedDoH{t: tr, dns: rec}
	}
	mux := http.NewServeMux()
	mux.Handle(doh.DefaultPath, h)
	st.httpSrv = &http.Server{Handler: mux, TLSConfig: tlsCfg.Clone(), IdleTimeout: time.Minute}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.dohConns = &countingListener{Listener: ln}
	go func() { _ = st.httpSrv.ServeTLS(transport.LimitListener(st.dohConns, 4096, 0, "doh"), "", "") }()
	st.ready.DoH = ln.Addr().String()
	st.ready.CAPEM = string(pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: ca.Cert.Raw}))
	return nil
}

// startCluster runs three cluster nodes on loopback UDP, each with its
// own resolver and cache, forwarding misses to key owners over a
// transport.Pool. Hot-set replication is off. The generator talks to
// node 0 only.
func (st *stack) startCluster(newRecursive func() *resolver.Recursive, tr *tracer) error {
	pcs, ids, err := listenCluster()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st.stopProbes = cancel
	for i := range pcs {
		var remotes []string
		for j, id := range ids {
			if j != i {
				remotes = append(remotes, id)
			}
		}
		rec := newRecursive()
		pool := transport.NewPool(transport.Options{Reuse: true})
		var fwd transport.Multi = pool
		if tr != nil {
			fwd = &tracedMulti{t: tr, inner: pool, name: spanForward}
		}
		// The nodes share one process, so a peer never dies: a run of
		// failed forwards is a stall, and letting it evict the peer
		// would move the forward share (and cascade: evicted keys are
		// resolved from scratch on node 1) mid-run.
		health := monitor.Config{Interval: time.Second, DownAfter: math.MaxInt32}
		node := &cluster.Node{
			Members:   cluster.NewMembership(ids[i], remotes, health, 0),
			Local:     rec,
			Forward:   fwd,
			Cache:     rec.Cache,
			ClusterID: "perfbench",
			Replicas:  -1,
			// Bounded load would spill overlapping forwards to the next
			// peer — often this node, which then caches the key and
			// stops forwarding it, so the forward share drifts from 2/3
			// toward 0 during a run. The plain owner keeps it fixed.
			LoadFactor: 1,
		}
		var handler dns53.Handler = node
		if tr != nil {
			name := spanServe
			if i > 0 {
				name = spanPeerServe
			}
			handler = wrapHandler(tr, node, name, spanRef{})
		}
		srv := &dns53.Server{Handler: handler}
		st.servers = append(st.servers, srv)
		st.nodes = append(st.nodes, node)
		st.pools = append(st.pools, pool)
		st.recs = append(st.recs, rec)
		pc := pcs[i]
		go func() { _ = srv.ServeUDP(pc) }()
		go node.ProbeLoop(ctx, time.Second)
	}
	st.ready.UDP = pcs[0].LocalAddr().String()
	return nil
}

// setBuffers gives a server socket 4 MB kernel buffers, as a resolver
// deployment would. With the 208 KB default, a stall of the machine of a
// few milliseconds overflows the receive buffer at the ladder's rates,
// and capacity then measures how often the machine stalls rather than
// what the server can do.
func setBuffers(pc net.PacketConn) {
	if uc, ok := pc.(*net.UDPConn); ok {
		_ = uc.SetReadBuffer(4 << 20)
		_ = uc.SetWriteBuffer(4 << 20)
	}
}

// clusterSize is the number of cluster nodes; clusterPort the port they
// listen on, each on its own loopback address.
const (
	clusterSize = 3
	clusterPort = 25353
)

// listenCluster opens one socket per node. The nodes' ring positions
// hash their IDs (their addresses), so fixed addresses give every run
// the same owners and the same forward share; an ephemeral port would
// move the share by several points from run to run. When the port is
// taken, the next ones are tried.
func listenCluster() ([]net.PacketConn, []string, error) {
	var err error
	for port := clusterPort; port < clusterPort+10; port++ {
		pcs := make([]net.PacketConn, 0, clusterSize)
		ids := make([]string, 0, clusterSize)
		for i := 1; i <= clusterSize; i++ {
			var c []net.PacketConn
			c, err = udpbatch.Listen("udp", fmt.Sprintf("127.0.0.%d:%d", i, port), 1)
			if err != nil {
				break
			}
			setBuffers(c[0])
			pcs = append(pcs, c[0])
			ids = append(ids, "udp://"+c[0].LocalAddr().String())
		}
		if err == nil {
			return pcs, ids, nil
		}
		for _, pc := range pcs {
			pc.Close()
		}
	}
	return nil, nil, err
}

// shutdown drains in dohserver's order: front ends, cluster nodes, peer
// transport, resolvers.
func (st *stack) shutdown() {
	if st.httpSrv != nil {
		_ = st.httpSrv.Close()
	}
	if st.stopProbes != nil {
		st.stopProbes()
	}
	for _, s := range st.servers {
		s.Shutdown()
	}
	for _, n := range st.nodes {
		n.Close()
	}
	for _, p := range st.pools {
		_ = p.Close()
	}
	for _, r := range st.recs {
		r.Close()
		r.Cache.Close()
	}
}

// buildHierarchy serves the benchmark's leaf zones under a root and one
// TLD zone per TLD.
func buildHierarchy() *authdns.Hierarchy {
	var leaves []authdns.LeafZone
	for _, l := range workload.Leaves() {
		leaves = append(leaves, authdns.LeafZone{Origin: l.Origin, Hosts: l.Hosts})
	}
	return authdns.BuildHierarchy(leaves)
}

// delays assigns every registered name server its simulated round trip.
// BuildHierarchy hands out consecutive addresses, two per zone, so
// walking them in order meets each zone's servers as index 0 then 1.
func delays(reg *authdns.Registry) map[string]time.Duration {
	out := make(map[string]time.Duration)
	seen := make(map[string]int)
	for i := 1; ; i++ {
		addr := netip.AddrFrom4([4]byte{198, 18, byte(i >> 8), byte(i)}).String() + ":53"
		z, ok := reg.Zone(addr)
		if !ok {
			return out
		}
		idx := seen[z.Origin()]
		seen[z.Origin()]++
		if workload.SlowServer(z.Origin(), idx) {
			out[addr] = slowDelay
		} else {
			out[addr] = fastDelay
		}
	}
}

// delayedUpstream is the simulated network between resolver and
// authoritative servers: it waits the server's round trip (or until the
// exchange is cancelled, as hedge losers are) and then asks the
// in-memory registry.
type delayedUpstream struct {
	reg   *authdns.Registry
	delay map[string]time.Duration
	t     *tracer
}

func (d *delayedUpstream) Exchange(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
	var ref spanRef
	var start int64
	if d.t != nil {
		ref = fromCtx(ctx)
		start = d.t.now()
	}
	timer := time.NewTimer(d.delay[server])
	select {
	case <-ctx.Done():
		timer.Stop()
		return nil, ctx.Err()
	case <-timer.C:
	}
	if d.t != nil {
		d.t.record(spanWait, d.t.ids.Add(1), ref.id, ref.req, start, d.t.now())
	}
	return d.reg.Exchange(ctx, q, server)
}

// snapshot reports every counter and gauge in obs.Default() plus the
// runtime/metrics the benchmark derives per-query costs from.
func snapshot(st *stack) map[string]any {
	reg := make(map[string]float64)
	for k, v := range obs.Default().Snapshot() {
		switch x := v.(type) {
		case uint64:
			reg[k] = float64(x)
		case int64:
			reg[k] = float64(x)
		case float64:
			reg[k] = x
		}
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/goroutines:goroutines"},
	}
	metrics.Read(samples)
	rt := make(map[string]float64, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			rt[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			rt[s.Name] = s.Value.Float64()
		}
	}
	out := map[string]any{"reg": reg, "runtime": rt}
	if st.dohConns != nil {
		out["doh_conns_max"] = st.dohConns.max.Load()
		out["doh_conns_total"] = st.dohConns.total.Load()
	}
	return out
}

func goroutines() int { return runtime.NumGoroutine() }
