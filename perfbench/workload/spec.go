package workload

import "fmt"

// Spec defines one benchmark workload. Rates are constants of the
// benchmark, so two commits measured with the same benchmark code always
// get the same offered load.
type Spec struct {
	Name string
	// DoH sends RFC 8484 POSTs over HTTP/2 + TLS instead of Do53/UDP.
	DoH bool
	// Cluster runs three cluster nodes and sends only to the first.
	Cluster bool
	Mix     Mix
	// CacheEntries bounds each resolver cache.
	CacheEntries int
	// LowRate and HighRate are the fixed-rate phases (queries/s). At the
	// high rate the server needs 0.35–0.45 of its one CPU: at 0.5 and
	// more, periods when the hypervisor took a third or more of that CPU
	// pushed it into overload (see the README). doh-hot's low rate is
	// close to its high one: lower, its median latency did not repeat.
	LowRate, HighRate float64
	// Ladder is the capacity search: eight rates 10% apart, from about
	// 0.65 to 1.3 times capacity. The top stays below 218 000 q/s, where
	// the 16-bit query ID would wrap within load.Timeout.
	Ladder []float64
}

// ladder returns n rates from lo growing by factor ratio, rounded to 100.
func ladder(lo, ratio float64, n int) []float64 {
	out := make([]float64, n)
	r := lo
	for i := range out {
		out[i] = float64(int(r/100+0.5) * 100)
		r *= ratio
	}
	return out
}

// Specs lists the workloads in the order the benchmark documents them.
var Specs = []Spec{
	{
		Name: "udp-hot", Mix: HotZipf, CacheEntries: 65536,
		LowRate: 8000, HighRate: 28000, Ladder: ladder(100000, 1.1, 8),
	},
	{
		Name: "udp-miss", Mix: Miss90, CacheEntries: 4096,
		LowRate: 3000, HighRate: 12000, Ladder: ladder(24000, 1.1, 8),
	},
	{
		Name: "doh-hot", DoH: true, Mix: HotZipf, CacheEntries: 65536,
		LowRate: 3000, HighRate: 4500, Ladder: ladder(12000, 1.1, 8),
	},
	{
		Name: "cluster-fwd", Cluster: true, Mix: HotUniform, CacheEntries: 65536,
		LowRate: 500, HighRate: 1500, Ladder: ladder(3200, 1.1, 8),
	},
}

// Lookup returns the named workload.
func Lookup(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}
