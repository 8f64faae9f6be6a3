package rng

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed should give identical streams")
		}
	}
}

func TestNewDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds collided %d/64 times", same)
	}
}

func TestSplitterStability(t *testing.T) {
	s1 := NewSplitter(7)
	s2 := NewSplitter(7)
	// Derivation order must not matter.
	a1 := s1.Stream("svc", "stage0")
	_ = s1.Stream("other")
	b1 := s1.Stream("svc", "stage0")
	a2 := s2.Stream("svc", "stage0")
	v1, v1b, v2 := a1.Uint64(), b1.Uint64(), a2.Uint64()
	if v1 != v2 || v1 != v1b {
		t.Fatal("identical labels should yield identical streams")
	}
}

func TestSplitterIndependence(t *testing.T) {
	s := NewSplitter(7)
	a := s.Stream("a")
	b := s.Stream("b")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("distinct labels collided %d/64 times", same)
	}
}

func TestSplitterLabelBoundaries(t *testing.T) {
	s := NewSplitter(9)
	// ("ab","c") must differ from ("a","bc") — the separator byte matters.
	a := s.Stream("ab", "c")
	b := s.Stream("a", "bc")
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("label boundary not respected")
	}
}

func TestChildSplitter(t *testing.T) {
	s := NewSplitter(11)
	c1 := s.Child("machine0")
	c2 := s.Child("machine0")
	if c1.Stream("x").Uint64() != c2.Stream("x").Uint64() {
		t.Fatal("child splitters with same label should match")
	}
	if s.Child("m0").seed == s.Child("m1").seed {
		t.Fatal("different children should have different seeds")
	}
}

func TestUniformityRough(t *testing.T) {
	// A coarse sanity check on the underlying generator: the mean of many
	// Float64 draws is near 0.5.
	r := New(99)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean of uniforms = %v, want ≈0.5", mean)
	}
}

// Property: stream derivation is a pure function of (seed, labels).
func TestStreamPurityProperty(t *testing.T) {
	prop := func(seed uint64, l1, l2 string) bool {
		x := NewSplitter(seed).Stream(l1, l2).Uint64()
		y := NewSplitter(seed).Stream(l1, l2).Uint64()
		return x == y
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFloat64MatchesRand: the draw's low 53 bits over 2^53 (Float64 on the
// bare generator) is, draw for draw, what rand.Rand.Float64 returns on the
// same generator, and PCG(labels) is seeded exactly like Stream(labels).
func TestFloat64MatchesRand(t *testing.T) {
	sp := NewSplitter(20260)
	bare, wrapped := sp.PCG("hybrid", "sample"), sp.Stream("hybrid", "sample")
	for i := 0; i < 1_000_000; i++ {
		if got, want := Float64(bare), wrapped.Float64(); got != want {
			t.Fatalf("draw %d: bare %v, rand.Rand %v", i, got, want)
		}
	}
}

// TestSeedPCGMatchesStream checks that reseeding a generator in place from
// a label and a number gives the stream Stream(label, strconv.Itoa(i))
// gives, across digit-count boundaries and for negative numbers, and that
// it allocates nothing.
func TestSeedPCGMatchesStream(t *testing.T) {
	split := NewSplitter(0x5eed)
	var g rand.PCG
	r := rand.New(&g)
	for _, id := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 65535, 99999, 100000, 999999, 1000000,
		1<<31 - 1, math.MaxInt, -1, -10, math.MinInt} {
		split.SeedPCG(&g, "user", id)
		want := split.Stream("user", strconv.Itoa(id))
		for k := range 4 {
			if a, b := r.Uint64(), want.Uint64(); a != b {
				t.Fatalf("id %d draw %d: SeedPCG gives %#x, Stream %#x", id, k, a, b)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { split.SeedPCG(&g, "user", 123456789) }); allocs != 0 {
		t.Fatalf("SeedPCG allocates %.0f times", allocs)
	}
}

// TestLabelHashIsFNV1a pins the label hash to hash/fnv's 64-bit FNV-1a over
// the labels each followed by a zero byte, the hash every stream in every
// committed result was seeded with.
func TestLabelHashIsFNV1a(t *testing.T) {
	for _, labels := range [][]string{nil, {""}, {"user", "42"}, {"svc", "stage0"}, {"a", "", "bc"}, {"ünïcode"}} {
		h := fnv.New64a()
		for _, l := range labels {
			h.Write([]byte(l))
			h.Write([]byte{0})
		}
		if got, want := hashLabels(labels), h.Sum64(); got != want {
			t.Errorf("%q: hash %#x, hash/fnv %#x", labels, got, want)
		}
	}
}
