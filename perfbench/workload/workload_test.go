package workload

import (
	"errors"
	"math/rand/v2"
	"testing"
)

// pinnedStreams fingerprints the first 10 000 queries of the "high"
// phase at 1000 q/s with seed 1 for every mix. A change here changes
// what every benchmark run sends: the benchmark then measures something
// else, and results before and after it are not comparable.
var pinnedStreams = map[Mix]uint64{
	HotZipf:    0x8dd375acee2daed4,
	Miss90:     0xfc3a3f2f93b2ccc1,
	HotUniform: 0x7a74a33333361966,
}

func streamHash(mix Mix, seed uint64, n int) uint64 {
	s := NewStream(mix, seed, "high", 1000)
	var q Query
	for i := 0; i < n; i++ {
		s.Next(&q)
	}
	return s.Hash()
}

func TestStreamPinned(t *testing.T) {
	for mix, want := range pinnedStreams {
		if got := streamHash(mix, 1, 10000); got != want {
			t.Errorf("mix %d: stream hash %#x, pinned %#x", mix, got, want)
		}
	}
}

func TestStreamDependsOnSeedAndPhase(t *testing.T) {
	a := streamHash(HotZipf, 1, 1000)
	if b := streamHash(HotZipf, 2, 1000); a == b {
		t.Error("seeds 1 and 2 drew the same stream")
	}
	s := NewStream(HotZipf, 1, "low", 1000)
	var q Query
	for i := 0; i < 1000; i++ {
		s.Next(&q)
	}
	if s.Hash() == a {
		t.Error("phases low and high drew the same stream")
	}
}

func TestMiss90Share(t *testing.T) {
	s := NewStream(Miss90, 3, "high", 1000)
	var q Query
	fresh, seen := 0, map[string]bool{}
	for i := 0; i < 20000; i++ {
		s.Next(&q)
		if q.Host < 0 {
			fresh++
			if seen[string(q.Question)] {
				t.Fatalf("fresh label %q drawn twice", q.Question)
			}
			seen[string(q.Question)] = true
		}
	}
	if share := float64(fresh) / 20000; share < 0.89 || share > 0.91 {
		t.Errorf("fresh share %.4f, want 0.9", share)
	}
}

// answer builds a correct response for a hot host's question.
func answer(id uint16, question []byte, host int) []byte {
	addr := HostAddr(host).As4()
	resp := []byte{byte(id >> 8), byte(id), 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0}
	resp = append(resp, question...)
	resp = append(resp, 0xc0, 0x0c, 0, 1, 0, 1, 0, 0, 1, 0x2c, 0, 4)
	return append(resp, addr[:]...)
}

func TestCheck(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	q := AppendQuestion(nil, HostName(42), rng)
	lower := AppendQuestion(nil, HostName(42), rand.New(rand.NewPCG(0, 0)))
	for i := range lower {
		if c := lower[i]; c >= 'A' && c <= 'Z' {
			lower[i] = c + 'a' - 'A'
		}
	}
	ok := answer(7, q, 42)
	cases := []struct {
		name string
		resp []byte
		id   uint16
		host int
		want error
	}{
		{"correct", ok, 7, 42, nil},
		{"wrong id", ok, 8, 42, ErrID},
		{"wrong address", answer(7, q, 43), 7, 42, ErrAnswer},
		{"lower-cased echo", answer(7, lower, 42), 7, 42, ErrEchoCase},
		{"other name", answer(7, AppendQuestion(nil, HostName(41), rng), 42), 7, 42, ErrEcho},
		{"NOERROR for a fresh label", ok, 7, -1, ErrRCode},
		{"truncated", ok[:20], 7, 42, ErrShort},
	}
	for _, c := range cases {
		if err := Check(c.resp, c.id, q, c.host); !errors.Is(err, c.want) && !(err == nil && c.want == nil) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}
