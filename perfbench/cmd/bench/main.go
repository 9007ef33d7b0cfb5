// Command bench runs one benchmark workload against the serving stack in
// a separate process and prints every metric by name with its unit. The
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from a traced run of the same workload. It exits non-zero
// when any answer fails verification or the workload drifted.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"encdns/perfbench/cpus"
	"encdns/perfbench/load"
	"encdns/perfbench/workload"
)

// Limits of the capacity search (loadgen.DefaultSLO's thresholds).
const (
	sloP99       = 50 * time.Millisecond
	sloFailRatio = 0.01
	// instances is how many server processes an end-to-end run starts,
	// and rounds how many low- and high-rate phase pairs each runs; see
	// runEndToEnd for how their figures combine.
	instances = 5
	rounds    = 8
	// warmWindow is the closed-loop warm-up's queries in flight.
	warmWindow = 32
	// maxLate is the generator's p99 send lateness beyond which a
	// capacity step does not count: the generator, not the server, was
	// the bottleneck.
	maxLate = 10 * time.Millisecond
)

func main() {
	var (
		name     = flag.String("workload", "udp-hot", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 32, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer variant")
		bin      = flag.String("server", "", "server binary")
		spinBin  = flag.String("spin", "", "spin binary, which keeps the server's CPUs from idling")
		spansDir = flag.String("spans-dir", ".", "directory for traced runs' span files")
	)
	flag.Parse()
	srvCPUs, genCPUs := cpus.Split()
	if err := cpus.Pin(genCPUs); err != nil {
		fail(err)
	}
	// Two Ps even on one CPU: the spinning sender holds one, so the
	// collector and timers never wait for it to be preempted.
	runtime.GOMAXPROCS(2)
	// Phases preallocate what they record; a lazy collector keeps GC
	// pauses out of the send schedule.
	debug.SetGCPercent(400)
	if *bin == "" || *spinBin == "" {
		fail(errors.New("--server and --spin are required"))
	}
	if len(srvCPUs) > 0 {
		sp, err := startSpinner(*spinBin, srvCPUs)
		if err != nil {
			fail(err)
		}
		spin = sp
	}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, s := range workload.Specs {
			names = append(names, s.Name)
		}
	}
	total := output{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		spec, err := workload.Lookup(n)
		if err != nil {
			fail(err)
		}
		r := &runner{spec: spec, seed: *seed, seconds: float64(*seconds), bin: *bin,
			spans: filepath.Join(*spansDir, "spans-"+n+".jsonl"), cpus: srvCPUs}
		out, err := r.run(*trace == 1)
		if err != nil {
			fail(fmt.Errorf("%s: %w", n, err))
		}
		if len(names) == 1 {
			total = out
			break
		}
		emit(out)
		total.Correct = total.Correct && out.Correct
		total.Attempted += out.Attempted
		total.Failed += out.Failed
		for k, v := range out.Metrics {
			total.Metrics[n+"/"+k] = v
		}
	}
	emit(total)
	stopSpinner()
	if !total.Correct {
		os.Exit(1)
	}
}

// spin keeps the server's CPUs busy while the benchmark runs; nil when
// the CPUs are not split.
var spin *spinner

func stopSpinner() {
	if spin != nil {
		spin.stop()
		spin = nil
	}
}

func fail(err error) {
	stopSpinner()
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func emit(o output) {
	for _, k := range slices.Sorted(mapsKeys(o.Metrics)) {
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", k, o.Metrics[k].Value, o.Metrics[k].Unit)
	}
	b, _ := json.Marshal(o)
	fmt.Println(string(b))
}

func mapsKeys(m map[string]metric) func(func(string) bool) {
	return func(yield func(string) bool) {
		for k := range m {
			if !yield(k) {
				return
			}
		}
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// runner runs one workload.
type runner struct {
	spec    workload.Spec
	seed    uint64
	seconds float64
	bin     string
	spans   string
	// cpus are the server's CPUs (nil: not pinned).
	cpus []int

	out    output
	wrong  []string
	checks []string
	// fixed and lossy count the run's fixed-rate phases, and those of
	// them that lost 1% or more of their queries.
	fixed, lossy int
}

func (r *runner) dur(share float64) time.Duration {
	return time.Duration(r.seconds * share * float64(time.Second))
}

func (r *runner) metric(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.out.Metrics[name] = metric{Value: v, Unit: unit}
}

// guard records a workload validity check; a failed one makes the run
// incorrect rather than reporting numbers from a drifted workload.
func (r *runner) guard(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		logf("  guard ok: %s", msg)
		return
	}
	logf("  guard FAILED: %s", msg)
	r.checks = append(r.checks, msg)
}

// session is one started, warmed server with its target.
type session struct {
	srv    *server
	target load.Target
	doh    *load.DoH
	setup  time.Duration
}

func (s *session) close() {
	if s.doh != nil {
		s.doh.Shutdown()
	}
	if err := s.srv.stop(); err != nil {
		logf("  server stop: %v", err)
	}
}

// setUp starts a server and warms it: every hot name once (and, on
// udp-miss, enough fresh labels to fill the cache), closed loop, every
// answer verified. Its duration runs from exec to the last verified
// warm-up answer (and, for DoH, the connections being ready).
func (r *runner) setUp(traced bool) (*session, error) {
	t0 := time.Now()
	srv, err := startServer(r.bin, r.spec.Name, traced, r.spans, r.cpus)
	if err != nil {
		return nil, err
	}
	s := &session{srv: srv}
	udp := &load.UDP{Addr: srv.ready.UDP}
	qs := workload.WarmupQuestions(r.seed)
	hosts := make([]int, len(qs))
	for i := range hosts {
		hosts[i] = i
	}
	if r.spec.Mix == workload.Miss90 {
		// Fill the cache past capacity so timed misses evict from the
		// first query on.
		fill := workload.NewStream(workload.Miss90, r.seed, "fill", 1)
		var q workload.Query
		for len(qs) < workload.NumHosts+r.spec.CacheEntries {
			fill.Next(&q)
			if q.Host < 0 {
				qs = append(qs, append([]byte(nil), q.Question...))
				hosts = append(hosts, -1)
			}
		}
	}
	if err := load.Warm(udp, qs, hosts, warmWindow); err != nil {
		srv.kill()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	s.target = &load.UDP{Addr: srv.ready.UDP}
	if r.spec.DoH {
		s.doh = &load.DoH{Addr: srv.ready.DoH, CAPEM: []byte(srv.ready.CAPEM), Conns: 2}
		if err := s.doh.Connect(); err != nil {
			srv.kill()
			return nil, fmt.Errorf("doh connect: %w", err)
		}
		s.target = s.doh
	}
	s.setup = time.Since(t0)
	return s, nil
}

// phase is one measured open-loop phase with server readings around it.
type phase struct {
	name       string
	res        *load.Result
	before     *snap
	after      *snap
	serverCPU  time.Duration
	sentFresh  int
	latSorted  []int64
	lateSorted []int64
}

func (r *runner) phase(s *session, name string, rate float64, d time.Duration) (*phase, error) {
	before, err := s.srv.snap()
	if err != nil {
		return nil, err
	}
	res, err := load.Run(s.target, load.Phase{Mix: r.spec.Mix, Seed: r.seed, Name: name, Rate: rate, Dur: d})
	if err != nil {
		return nil, err
	}
	after, err := s.srv.snap()
	if err != nil {
		return nil, err
	}
	p := &phase{name: name, res: res, before: before, after: after, serverCPU: after.CPU - before.CPU}
	p.latSorted = slices.Clone(res.Lat)
	slices.Sort(p.latSorted)
	p.lateSorted = slices.Clone(res.Late)
	slices.Sort(p.lateSorted)
	if res.Wrong > 0 {
		r.wrong = append(r.wrong, fmt.Sprintf("%s: %d wrong answers, first: %v", name, res.Wrong, res.FirstWrong))
	}
	logf("  %-8s %7.0f q/s  sent %7d ok %7d lost %4d err %4d wrong %d stray %d case-lost %d  p50 %.3f ms  p99 %.3f ms  srv %.2f us/q  gen %.2f us/q  late p99 %.0f us  stream %016x",
		name, rate, res.Sent, res.OK, res.Timeouts, res.Errors, res.Wrong, res.Stray, res.CaseLost,
		p.p(0.5)/1e6, p.p(0.99)/1e6, p.cpuPerQ(), p.genPerQ(), load.Quantile(p.lateSorted, 0.99)/1e3, res.Hash)
	return p, nil
}

func (p *phase) p(q float64) float64 { return load.Quantile(p.latSorted, q) }

// cpuPerQ is server CPU per verified answer, µs.
func (p *phase) cpuPerQ() float64 {
	return p.serverCPU.Seconds() * 1e6 / float64(max(p.res.OK, 1))
}

// genPerQ is generator CPU per query sent, µs.
func (p *phase) genPerQ() float64 {
	return p.res.GenCPU.Seconds() * 1e6 / float64(max(p.res.Sent, 1))
}

// delta is the change of a server counter over the phase.
func (p *phase) delta(key string) float64 { return p.after.Reg[key] - p.before.Reg[key] }

func (p *phase) rtDelta(key string) float64 { return p.after.Runtime[key] - p.before.Runtime[key] }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const (
	keyTemplate  = `resolver_cache_hit_serve_total{path="template"}`
	keyRequests  = "dns53_server_requests_total"
	keyDoHPOST   = `doh_server_requests_total{method="POST"}`
	keyHits      = "resolver_cache_hits_total"
	keyMisses    = "resolver_cache_misses_total"
	keyEvictions = "resolver_cache_evictions_total"
	keyEntries   = "resolver_cache_entries"
)

func (p *phase) templateShare() float64 {
	return ratio(p.delta(keyTemplate), p.delta(keyRequests)+p.delta(keyDoHPOST))
}

func (p *phase) hitRatio() float64 {
	return ratio(p.delta(keyHits), p.delta(keyHits)+p.delta(keyMisses))
}

// nodeQueries is the number of client queries node 1 handled: local
// cache hits plus misses it owned or forwarded. Only node 1 receives
// client queries, and lost ones do not skew it.
func (p *phase) nodeQueries() float64 {
	return p.delta("cluster_local_hits_total") + p.delta("cluster_owner_local_total") +
		p.delta("cluster_owner_remote_total")
}

// forwardShare is forwarded queries over queries node 1 handled.
func (p *phase) forwardShare() float64 {
	return ratio(p.delta("cluster_owner_remote_total"), p.nodeQueries())
}

// checkFixed applies the checks every fixed-rate phase must pass. A
// stray answer fails verification: at these rates the ID space takes
// over a second to wrap, so no answer to an earlier query is legitimately
// that late. A phase that lost loadgen.DefaultSLO's 1% of its queries or
// more is counted; see checkLoss.
func (r *runner) checkFixed(p *phase) {
	res := p.res
	if res.Stray > 0 {
		r.wrong = append(r.wrong, fmt.Sprintf("%s: %d stray answers", p.name, res.Stray))
	}
	r.fixed++
	if res.FailRatio() >= sloFailRatio {
		r.lossy++
		logf("  %s lost %.5f of its queries", p.name, res.FailRatio())
	}
}

// checkLoss fails the run when half or more of its fixed-rate phases
// lost 1% of their queries. The end-to-end metrics read only answered
// queries, so a server that drops packets would otherwise show in none
// of them; it drops them in every phase, while a period in which the
// hypervisor takes much of the server's CPU hits only some.
func (r *runner) checkLoss() {
	r.guard(2*r.lossy < r.fixed, "fixed-rate phases that lost 1%% or more: %d of %d, fewer than half", r.lossy, r.fixed)
}

// checkWorkload applies the validity guards to a timed phase.
func (r *runner) checkWorkload(p *phase) {
	switch r.spec.Name {
	case "udp-hot":
		r.guard(p.hitRatio() >= 0.999, "resolver.hit_ratio %.5f >= 0.999", p.hitRatio())
		r.guard(p.templateShare() >= 0.999, "dns53.template_share %.5f >= 0.999", p.templateShare())
		r.guard(p.res.CaseLost == 0, "template answers keep the 0x20 echo: %d lost", p.res.CaseLost)
	case "udp-miss":
		fresh := workload.FreshShare
		got := ratio(float64(p.res.Fresh), float64(p.res.Sent))
		r.guard(math.Abs(got-fresh) < 0.02, "unique-name share %.4f within 0.02 of %.2f", got, fresh)
		entries := p.after.Reg[keyEntries]
		r.guard(entries >= 0.9*float64(r.spec.CacheEntries), "cache entries %.0f at capacity %d", entries, r.spec.CacheEntries)
		ev := ratio(p.delta(keyEvictions), float64(p.res.Fresh))
		r.guard(ev >= 0.9, "evictions per fresh query %.3f >= 0.9", ev)
	case "doh-hot":
		r.guard(p.after.DoHConnsMax <= 2 && p.after.DoHConnsTotal <= 2,
			"doh.conns max %.0f total %.0f <= 2", p.after.DoHConnsMax, p.after.DoHConnsTotal)
		r.guard(p.hitRatio() >= 0.999, "resolver.hit_ratio %.5f >= 0.999", p.hitRatio())
		r.guard(p.res.CaseLost == 0, "template answers keep the 0x20 echo: %d lost", p.res.CaseLost)
	case "cluster-fwd":
		fs := p.forwardShare()
		r.guard(math.Abs(fs-2.0/3) <= 0.08, "cluster.forward_share %.4f within 0.08 of 2/3", fs)
		rb := p.delta("cluster_ring_rebuilds_total")
		r.guard(rb == 0, "ring unchanged: %.0f rebuilds", rb)
	}
}

func (r *runner) run(traced bool) (output, error) {
	r.out = output{Metrics: map[string]metric{}}
	logf("perfbench %s seed %d trace %v", r.spec.Name, r.seed, traced)
	var out output
	var err error
	if traced {
		out, err = r.runTraced()
	} else {
		out, err = r.runEndToEnd()
	}
	if err != nil {
		return out, err
	}
	r.checkLoss()
	out.Correct = len(r.wrong) == 0 && len(r.checks) == 0
	for _, w := range r.wrong {
		logf("VERIFICATION FAILED: %s", w)
	}
	for _, c := range r.checks {
		logf("WORKLOAD INVALID: %s", c)
	}
	return out, nil
}

// runEndToEnd measures the untraced stack. Each of five server
// instances is set up and then runs four rounds of a short low-rate and
// a short high-rate phase. The run reports, for latency at each rate and
// for CPU per query, the best of its twenty phases, and for peak RSS the
// best instance. On a 2-vCPU KVM guest shared with other tenants, the
// server CPU's speed flips between a fast and a slow state every few
// seconds (one server's median latency read 0.19 ms and 0.39 ms in
// consecutive seconds), and other tenants only ever make a figure worse,
// so the best of many short phases spread over the run finds the fast
// state far more often than any one longer phase.
// Set-up time is the median of the five.
func (r *runner) runEndToEnd() (output, error) {
	var setupT, cpu, rss, p50Low, p50High []float64
	for i := 0; i < instances; i++ {
		s, err := r.setUp(false)
		if err != nil {
			return r.out, err
		}
		// all spans the instance's phases, for the workload guards: a
		// phase of a few hundred queries is too small a sample for them.
		all := &phase{res: &load.Result{}}
		for j := 0; j < rounds; j++ {
			low, err := r.phase(s, fmt.Sprintf("low-%d.%d", i, j), r.spec.LowRate, r.dur(0.5/(instances*rounds)))
			if err != nil {
				s.close()
				return r.out, err
			}
			high, err := r.phase(s, fmt.Sprintf("high-%d.%d", i, j), r.spec.HighRate, r.dur(0.75/(instances*rounds)))
			if err != nil {
				s.close()
				return r.out, err
			}
			r.checkFixed(low)
			r.checkFixed(high)
			if all.before == nil {
				all.before = low.before
			}
			all.after = high.after
			for _, p := range []*phase{low, high} {
				all.res.Sent += p.res.Sent
				all.res.Fresh += p.res.Fresh
				all.res.CaseLost += p.res.CaseLost
			}
			cpu = append(cpu, high.cpuPerQ())
			p50Low = append(p50Low, low.p(0.5))
			p50High = append(p50High, high.p(0.5))
			r.out.Attempted += low.res.Sent + high.res.Sent
			r.out.Failed += low.res.Failed() + high.res.Failed()
		}
		r.checkWorkload(all)
		peak, err := s.srv.peakRSSMB()
		if err != nil {
			s.close()
			return r.out, err
		}
		setupT = append(setupT, s.setup.Seconds())
		rss = append(rss, peak)
		s.close()
	}
	logf("  setup %.3f  rss %.1f (per instance)", setupT, rss)
	logf("  cpu %.2f (us, per high phase)", cpu)
	logf("  p50 low %.4f high %.4f (ms, per phase)", scale(p50Low, 1e-6), scale(p50High, 1e-6))
	r.metric("p50_ms_low", "ms", slices.Min(p50Low)/1e6)
	r.metric("p50_ms_high", "ms", slices.Min(p50High)/1e6)
	r.metric("cpu_us_per_q", "us", slices.Min(cpu))
	r.metric("rss_mb", "MB", slices.Min(rss))
	r.metric("setup_s", "s", median(setupT))
	logf("  fail_ratio %.6f over the fixed-rate phases", ratio(float64(r.out.Failed), float64(r.out.Attempted)))
	return r.out, nil
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

// windowQuantiles returns the q-quantile of each window of the phase's
// latencies, windows taken by due time. A window is 100 ms, or longer
// at low rates so that at least ten answers lie beyond its q-quantile.
// Short windows keep a stall of a few milliseconds (which the box
// produces a few times a second, whatever runs on it) inside the
// windows it hits, so the median over windows does not swing with how
// many stalls one run happened to catch.
func (p *phase) windowQuantiles(q float64, rate float64) []float64 {
	win := max(int64(100*time.Millisecond), int64(10/(1-q)/rate*1e9))
	var buckets [][]int64
	for i, due := range p.res.DueAt {
		w := int(due / win)
		for len(buckets) <= w {
			buckets = append(buckets, nil)
		}
		buckets[w] = append(buckets[w], p.res.Lat[i])
	}
	var out []float64
	for _, b := range buckets {
		if len(b) > 0 {
			out = append(out, load.Quantile(b, q))
		}
	}
	return out
}

// capacity climbs the whole ladder and returns the highest rate whose
// step held p99 under the SLO, lost under 1%, built no backlog, and was
// driven faithfully by the generator. Every step runs: a stall of the
// machine can fail a step well below capacity, while no step above
// capacity can pass.
func (r *runner) capacity(s *session) (float64, error) {
	best := 0.0
	for i, rate := range r.spec.Ladder {
		time.Sleep(100 * time.Millisecond) // let the previous step drain
		p, err := r.phase(s, fmt.Sprintf("step-%d", i), rate, r.dur(0.06))
		if err != nil {
			return 0, err
		}
		if r.stepPasses(p) {
			best = rate
		}
	}
	return best, nil
}

func (r *runner) stepPasses(p *phase) bool {
	res := p.res
	if p.p(0.99) >= float64(sloP99) || res.FailRatio() >= sloFailRatio {
		logf("    step fails the SLO: p99 %.3f ms, fail ratio %.4f", p.p(0.99)/1e6, res.FailRatio())
		return false
	}
	// Backlog: the second half's median latency must stay within twice
	// the first half's plus 1 ms. A rate even 10% over capacity grows
	// the queue by tens of milliseconds within a step; sub-millisecond
	// wobble is the machine, not a backlog.
	if len(res.Lat) > 0 {
		half := int64(p.res.Wall) / 2
		var a, b []int64
		for i, due := range res.DueAt {
			if due < half {
				a = append(a, res.Lat[i])
			} else {
				b = append(b, res.Lat[i])
			}
		}
		qa, qb := load.Quantile(a, 0.5), load.Quantile(b, 0.5)
		if qb > 2*qa+1e6 {
			logf("    step builds a backlog: median %.3f ms then %.3f ms", qa/1e6, qb/1e6)
			return false
		}
	}
	if late := load.Quantile(p.lateSorted, 0.99); late > float64(maxLate) {
		logf("    generator fell behind: late p99 %.0f us", late/1e3)
		return false
	}
	if p.genPerQ() > p.cpuPerQ() {
		logf("    generator cost %.2f us/q exceeds the server's %.2f", p.genPerQ(), p.cpuPerQ())
		return false
	}
	return true
}

// runTraced runs the low- and high-rate phases and the capacity ladder
// on an untraced server (for the registry and runtime counters, the
// untraced CPU cost, p99 and capacity), then the high-rate phase on a
// traced one with the same query stream, and reports the per-layer
// metrics.
func (r *runner) runTraced() (output, error) {
	d := r.dur(0.3)
	s, err := r.setUp(false)
	if err != nil {
		return r.out, err
	}
	low, err := r.phase(s, "low", r.spec.LowRate, r.dur(0.15))
	if err != nil {
		s.close()
		return r.out, err
	}
	plain, err := r.phase(s, "high", r.spec.HighRate, d)
	var capacity float64
	if err == nil {
		capacity, err = r.capacity(s)
	}
	s.close()
	if err != nil {
		return r.out, err
	}
	r.checkFixed(low)
	r.checkFixed(plain)
	r.checkWorkload(plain)

	ts, err := r.setUp(true)
	if err != nil {
		return r.out, err
	}
	var rep traceReport
	if err := ts.srv.call("reset", &map[string]bool{}); err != nil {
		ts.close()
		return r.out, err
	}
	traced, err := r.phase(ts, "high", r.spec.HighRate, d)
	if err == nil {
		err = ts.srv.call("report", &rep)
	}
	ts.close()
	if err != nil {
		return r.out, err
	}
	logf("  traced spans kept %d dropped %.0f -> %s", rep.Kept, rep.Dropped, r.spans)
	traced.name = "traced high"
	r.checkFixed(traced)

	// The traced run must measure the same program.
	r.guard(math.Abs(traced.templateShare()-plain.templateShare()) <= 0.005,
		"traced dns53.template_share %.5f equals untraced %.5f", traced.templateShare(), plain.templateShare())
	r.guard(math.Abs(traced.hitRatio()-plain.hitRatio()) <= 0.005,
		"traced resolver.hit_ratio %.5f equals untraced %.5f", traced.hitRatio(), plain.hitRatio())

	span := func(name string) (count, p50, p99 float64) {
		st := rep.Spans[name]
		return st.Count, st.P50, st.P99
	}
	sent := float64(plain.res.Sent)
	r.out.Attempted = low.res.Sent + plain.res.Sent + traced.res.Sent
	r.out.Failed = low.res.Failed() + plain.res.Failed() + traced.res.Failed()

	r.metric("udpbatch.read_pkts_per_syscall", "pkts", ratio(plain.delta("udpbatch_read_packets_total"), plain.delta("udpbatch_read_syscalls_total")))
	r.metric("udpbatch.write_pkts_per_syscall", "pkts", ratio(plain.delta("udpbatch_write_packets_total"), plain.delta("udpbatch_write_syscalls_total")))
	r.metric("dns53.template_share", "ratio", plain.templateShare())
	r.metric("dns53.queue_depth_max", "count", rep.QueueMax)
	_, ap50, ap99 := span("resolver.append")
	r.metric("resolver.append_ns_p50", "ns", ap50)
	r.metric("resolver.append_ns_p99", "ns", ap99)
	serveN, sp50, sp99 := span("resolver.serve")
	r.metric("resolver.serve_us_p50", "us", sp50/1e3)
	r.metric("resolver.serve_us_p99", "us", sp99/1e3)
	r.metric("resolver.hit_ratio", "ratio", plain.hitRatio())
	r.metric("resolver.evictions_per_q", "ratio", ratio(plain.delta(keyEvictions), sent))
	exN, _, _ := span("upstream.exchange")
	r.metric("resolver.upstream_per_miss", "ratio", ratio(exN, serveN))
	hedges := plain.delta("resolver_hedge_launched_total")
	r.metric("resolver.hedge_share", "ratio", ratio(hedges, plain.delta("resolver_srtt_selections_total")))
	r.metric("resolver.hedge_win_share", "ratio", ratio(plain.delta("resolver_hedge_wins_total"), hedges))
	_, wp50, wp99 := span("upstream.wait")
	r.metric("upstream.wait_us_p50", "us", wp50/1e3)
	r.metric("upstream.wait_us_p99", "us", wp99/1e3)
	_, hp50, hp99 := span("doh.http")
	r.metric("doh.http_us_p50", "us", hp50/1e3)
	r.metric("doh.http_us_p99", "us", hp99/1e3)
	_, selfP50, _ := span("doh.self")
	r.metric("doh.self_us_p50", "us", selfP50/1e3)
	r.metric("doh.conns", "count", plain.after.DoHConnsMax)
	fwdN, fp50, fp99 := span("cluster.forward")
	fwdShare := 0.0
	if r.spec.Cluster {
		fwdShare = ratio(fwdN, traced.nodeQueries())
	}
	r.metric("cluster.forward_share", "ratio", fwdShare)
	r.metric("cluster.fallbacks", "count", plain.delta("cluster_forward_fallback_local_total"))
	r.metric("cluster.forward_us_p50", "us", fp50/1e3)
	r.metric("cluster.forward_us_p99", "us", fp99/1e3)
	_, pp50, _ := span("cluster.peer_serve")
	r.metric("cluster.peer_serve_us_p50", "us", pp50/1e3)
	hopSelf := 0.0
	if fwdN > 0 {
		hopSelf = (fp50 - pp50) / 1e3
	}
	r.metric("transport.hop_self_us_p50", "us", hopSelf)
	r.metric("runtime.allocs_per_q", "count", ratio(plain.rtDelta("/gc/heap/allocs:objects"), sent))
	r.metric("runtime.alloc_bytes_per_q", "bytes", ratio(plain.rtDelta("/gc/heap/allocs:bytes"), sent))
	r.metric("runtime.gc_cpu_share", "ratio", ratio(plain.rtDelta("/cpu/classes/gc/total:cpu-seconds"), plain.serverCPU.Seconds()))
	r.metric("runtime.goroutines_max", "count", rep.GoroutinesMax)
	r.metric("gen.late_us_p99", "us", load.Quantile(plain.lateSorted, 0.99)/1e3)
	r.metric("gen.cpu_us_per_q", "us", plain.genPerQ())
	r.metric("trace.overhead_us_per_q", "us", traced.cpuPerQ()-plain.cpuPerQ())
	r.metric("capacity_qps", "qps", capacity)
	r.metric("p99_ms_low", "ms", median(low.windowQuantiles(0.99, r.spec.LowRate))/1e6)
	r.metric("p99_ms_high", "ms", median(plain.windowQuantiles(0.99, r.spec.HighRate))/1e6)
	r.metric("fail_ratio", "ratio", ratio(float64(r.out.Failed), float64(r.out.Attempted)))
	r.metric("verify.echo_case_lost_share", "ratio", ratio(float64(plain.res.CaseLost), float64(plain.res.OK)))
	return r.out, nil
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
