// Package workload holds everything the benchmark's two processes must
// agree on without talking to each other: the authoritative zone data the
// server serves, the seeded query streams the generator sends, and the
// answer each query must get. The server builds its hierarchy from Leaves;
// the generator checks every response against Expect.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/netip"
	"sort"
)

// Zone layout: NumZones leaf zones spread over four TLDs, HostsPerZone
// host names in each, one A record per host.
const (
	NumZones     = 20
	HostsPerZone = 50
	NumHosts     = NumZones * HostsPerZone
)

// zoneSeed fixes the popularity order and the slow-server choice. It is
// part of the benchmark's definition, not of a run: the workload seed
// only changes which queries are drawn.
const zoneSeed = 0x5eed_b0b

var tlds = [...]string{"com.", "net.", "org.", "io."}

// ZoneName is the origin of leaf zone z.
func ZoneName(z int) string { return fmt.Sprintf("site%02d.%s", z, tlds[z%len(tlds)]) }

// HostName is the canonical (lower-case) name of host h.
func HostName(h int) string {
	return fmt.Sprintf("h%02d.%s", h%HostsPerZone, ZoneName(h/HostsPerZone))
}

// HostAddr is the single A record of host h.
func HostAddr(h int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 200, byte(h / HostsPerZone), byte(h % HostsPerZone)})
}

// Leaf is one leaf zone's data: its origin and host → address map.
type Leaf struct {
	Origin string
	Hosts  map[string][]netip.Addr
}

// Leaves returns the bench hierarchy's leaf zones in zone order.
func Leaves() []Leaf {
	out := make([]Leaf, NumZones)
	for z := range out {
		out[z] = Leaf{Origin: ZoneName(z), Hosts: make(map[string][]netip.Addr, HostsPerZone)}
	}
	for h := 0; h < NumHosts; h++ {
		out[h/HostsPerZone].Hosts[HostName(h)] = []netip.Addr{HostAddr(h)}
	}
	return out
}

// SlowServer reports whether the name server at index i (0 or 1) of leaf
// or delegation zone origin is the zone's slow server. Exactly one of
// each zone's two servers is slow; which one is a seeded coin per zone.
func SlowServer(origin string, i int) bool {
	var h uint64 = zoneSeed
	for _, c := range []byte(origin) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return int(h>>17&1) == i
}

// popularity maps Zipf rank → host index: a fixed shuffle, so popular
// names spread over every zone instead of filling the first one.
var popularity = func() []int {
	p := make([]int, NumHosts)
	for i := range p {
		p[i] = i
	}
	rng := rand.New(rand.NewPCG(zoneSeed, 1))
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}()

// zipf samples host indexes with P(rank k) ∝ 1/k^s over NumHosts ranks.
type zipf struct{ cdf []float64 }

func newZipf(s float64) *zipf {
	cdf := make([]float64, NumHosts)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) host(u float64) int {
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= NumHosts {
		k = NumHosts - 1
	}
	return popularity[k]
}
