package cache

import (
	"math"
	"testing"
	"testing/quick"

	"uqsim/internal/rng"
)

func TestLRUBasics(t *testing.T) {
	c := NewLRU(2)
	if c.Lookup(1) {
		t.Fatal("empty cache hit")
	}
	c.Insert(1)
	c.Insert(2)
	if !c.Lookup(1) || !c.Lookup(2) {
		t.Fatal("inserted keys must hit")
	}
	c.Insert(3) // evicts LRU — key 1 was refreshed before 2? order: lookups refreshed 1 then 2 → evict 1
	if c.Lookup(1) {
		t.Fatal("evicted key hit")
	}
	if !c.Lookup(3) || !c.Lookup(2) {
		t.Fatal("resident keys must hit")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestLRURecencyOrder(t *testing.T) {
	c := NewLRU(2)
	c.Insert(1)
	c.Insert(2)
	c.Lookup(1) // 1 becomes most recent
	c.Insert(3) // evict 2
	if c.Lookup(2) {
		t.Fatal("2 should be evicted")
	}
	if !c.Lookup(1) {
		t.Fatal("1 should survive")
	}
}

func TestLRUReinsertRefreshes(t *testing.T) {
	c := NewLRU(2)
	c.Insert(1)
	c.Insert(2)
	c.Insert(1) // refresh, no growth
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	c.Insert(3) // evict 2 (1 refreshed)
	if c.Lookup(2) {
		t.Fatal("2 should be evicted")
	}
}

func TestLRUStats(t *testing.T) {
	c := NewLRU(4)
	c.Insert(1)
	c.Lookup(1) // hit
	c.Lookup(2) // miss
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
	if got := c.HitRatio(); got != 0.5 {
		t.Fatalf("hit ratio %v, want 0.5", got)
	}
	if NewLRU(1).HitRatio() != 0 {
		t.Fatal("empty ratio")
	}
}

func TestLRUCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewLRU(0)
}

// Property: the cache never exceeds capacity and most-recent insertions
// always hit immediately.
func TestLRUBoundedProperty(t *testing.T) {
	prop := func(seed uint64, capRaw uint8, ops uint8) bool {
		capacity := int(capRaw%16) + 1
		c := NewLRU(capacity)
		r := rng.New(seed)
		for i := 0; i < int(ops); i++ {
			k := r.Uint64() % 64
			c.Insert(k)
			if c.Len() > capacity {
				return false
			}
			if !c.Lookup(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfDistribution(t *testing.T) {
	z := NewZipf(1000, 0.99)
	r := rng.New(5)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	// Key 0 should be the most popular; frequency ≈ 1/H where H is the
	// generalized harmonic number.
	if counts[0] < counts[1] || counts[1] < counts[10] {
		t.Fatalf("popularity not decreasing: %d, %d, %d", counts[0], counts[1], counts[10])
	}
	// Analytic mass of top-10 vs empirical.
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	got := float64(top10) / n
	want := z.PopularMass(10)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("top-10 mass %v vs analytic %v", got, want)
	}
}

func TestZipfUniformCase(t *testing.T) {
	z := NewZipf(100, 0)
	r := rng.New(6)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	for k, c := range counts {
		if math.Abs(float64(c)/n-0.01) > 0.005 {
			t.Fatalf("uniform zipf key %d frequency %v", k, float64(c)/n)
		}
	}
}

func TestZipfEdges(t *testing.T) {
	z := NewZipf(5, 1)
	if z.PopularMass(0) != 0 || z.PopularMass(5) != 1 || z.PopularMass(99) != 1 {
		t.Fatal("popular mass edges")
	}
	for _, fn := range []func(){
		func() { NewZipf(0, 1) },
		func() { NewZipf(5, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			fn()
		}()
	}
}

// Property: LRU hit ratio under Zipf grows with cache size and stays in
// [0, popular-mass ceiling + slack].
func TestLRUZipfHitRatioMonotone(t *testing.T) {
	run := func(capacity int) float64 {
		z := NewZipf(10000, 0.99)
		c := NewLRU(capacity)
		r := rng.New(7)
		for i := 0; i < 100000; i++ {
			k := z.Sample(r)
			if !c.Lookup(k) {
				c.Insert(k)
			}
		}
		return c.HitRatio()
	}
	small, mid, big := run(100), run(1000), run(5000)
	if !(small < mid && mid < big) {
		t.Fatalf("hit ratios not monotone: %v, %v, %v", small, mid, big)
	}
	if small < 0.2 || big > 0.99 {
		t.Fatalf("implausible hit ratios: %v … %v", small, big)
	}
}
