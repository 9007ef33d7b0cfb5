package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
	"strings"
	"time"
)

// Mix is how a workload draws query names.
type Mix int

const (
	// HotZipf draws hot names with Zipf s=1.2 popularity.
	HotZipf Mix = iota
	// Miss90 sends a fresh random label under a uniformly drawn leaf
	// zone (answered NXDOMAIN after one leaf exchange) on 90% of
	// queries and a HotZipf name on the rest.
	Miss90
	// HotUniform draws hot names uniformly.
	HotUniform
)

// FreshShare is Miss90's share of fresh-label queries.
const FreshShare = 0.9

// ZipfS is the popularity skew of the hot-name mixes.
const ZipfS = 1.2

// TypeA and ClassIN are the only question type and class the bench sends.
const (
	TypeA   = 1
	ClassIN = 1
)

// Query is one generated query: when it is due relative to the start of
// its phase, which host it asks for (-1 for a fresh NXDOMAIN label), and
// its question section on the wire (name in randomized 0x20 case, type,
// class). Question aliases the stream's buffer until the next Next call.
type Query struct {
	Due      time.Duration
	Host     int
	Question []byte
}

// Stream is a seeded, deterministic query stream: Poisson arrivals at a
// fixed rate and names drawn from the workload's mix. The same (seed,
// phase, rate, mix) always yields the same queries.
type Stream struct {
	rng  *rand.Rand
	mix  Mix
	rate float64
	t    float64 // seconds since phase start
	z    *zipf
	buf  []byte
	hash uint64
	n    int
}

var zipfHot = newZipf(ZipfS)

// NewStream starts the stream for one phase of a run. phase names the
// phase ("low", "high", "step-3", …) so every phase draws its own queries.
func NewStream(mix Mix, seed uint64, phase string, rate float64) *Stream {
	h := fnv.New64a()
	h.Write([]byte(phase))
	return &Stream{
		rng:  rand.New(rand.NewPCG(seed, h.Sum64())),
		mix:  mix,
		rate: rate,
		z:    zipfHot,
		buf:  make([]byte, 0, 300),
		hash: 14695981039346656037,
	}
}

// Next fills q with the next query.
func (s *Stream) Next(q *Query) {
	s.t += s.rng.ExpFloat64() / s.rate
	q.Due = time.Duration(s.t * 1e9)
	var name string
	switch s.mix {
	case Miss90:
		if s.rng.Float64() < FreshShare {
			q.Host = -1
			name = s.freshName()
		} else {
			q.Host = s.z.host(s.rng.Float64())
		}
	case HotUniform:
		q.Host = s.rng.IntN(NumHosts)
	default:
		q.Host = s.z.host(s.rng.Float64())
	}
	if q.Host >= 0 {
		name = HostName(q.Host)
	}
	s.buf = AppendQuestion(s.buf[:0], name, s.rng)
	q.Question = s.buf
	s.n++
	var due [8]byte
	binary.BigEndian.PutUint64(due[:], uint64(q.Due))
	s.fold(due[:])
	s.fold(q.Question)
}

func (s *Stream) fold(b []byte) {
	for _, c := range b {
		s.hash = (s.hash ^ uint64(c)) * 1099511628211
	}
}

// Hash is the FNV-1a hash of every query drawn so far (due time and
// question bytes), the fingerprint a run prints to show its stream.
func (s *Stream) Hash() uint64 { return s.hash }

// Count is the number of queries drawn so far.
func (s *Stream) Count() int { return s.n }

const labelChars = "abcdefghijklmnopqrstuvwxyz0234567"

// freshName draws a never-before-seen label under a random leaf zone.
func (s *Stream) freshName() string {
	var b strings.Builder
	b.WriteByte('q')
	for i := 0; i < 12; i++ {
		b.WriteByte(labelChars[s.rng.IntN(len(labelChars))])
	}
	b.WriteByte('.')
	b.WriteString(ZoneName(s.rng.IntN(NumZones)))
	return b.String()
}

// AppendQuestion appends the wire question for name (type A, class IN)
// with every letter's case drawn from rng: the 0x20 randomization a
// resolver must echo back byte for byte.
func AppendQuestion(dst []byte, name string, rng *rand.Rand) []byte {
	var bits uint64
	nbits := 0
	for _, label := range strings.Split(strings.TrimSuffix(name, "."), ".") {
		dst = append(dst, byte(len(label)))
		for i := 0; i < len(label); i++ {
			c := label[i]
			if c >= 'a' && c <= 'z' {
				if nbits == 0 {
					bits, nbits = rng.Uint64(), 64
				}
				if bits&1 == 1 {
					c -= 'a' - 'A'
				}
				bits >>= 1
				nbits--
			}
			dst = append(dst, c)
		}
	}
	return append(dst, 0, 0, TypeA, 0, ClassIN)
}

// WarmupQuestions returns one question per hot host, in host order, with
// seeded 0x20 case: the closed-loop set-up pass that fills the cache.
func WarmupQuestions(seed uint64) [][]byte {
	rng := rand.New(rand.NewPCG(seed, 0x3a3a))
	out := make([][]byte, NumHosts)
	for h := range out {
		out[h] = AppendQuestion(nil, HostName(h), rng)
	}
	return out
}
