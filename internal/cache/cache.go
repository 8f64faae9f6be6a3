// Package cache implements an LRU cache with Zipf-distributed key
// popularity — the substrate behind µqSim's emergent-hit-ratio mode. The
// paper treats cache hit probability as a model input ("the probability
// for each path is a function of MongoDB's working set size and allocated
// memory"); this package derives that probability from first principles
// instead: a key universe with Zipfian popularity, a bounded LRU, and
// write-allocate on miss, wired into the dependency graph as a runtime
// branch decision.
package cache

import (
	"container/list"
	"math"
	"sort"

	"uqsim/internal/rng"
)

// LRU is a bounded least-recently-used set of keys.
type LRU struct {
	capacity int
	items    map[uint64]*list.Element
	order    *list.List // front = most recent

	hits, misses uint64
}

// NewLRU creates an LRU holding up to capacity keys.
func NewLRU(capacity int) *LRU {
	if capacity < 1 {
		panic("cache: capacity must be positive")
	}
	return &LRU{
		capacity: capacity,
		items:    make(map[uint64]*list.Element),
		order:    list.New(),
	}
}

// Lookup reports whether key is cached, refreshing its recency on a hit.
func (c *LRU) Lookup(key uint64) bool {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return true
	}
	c.misses++
	return false
}

// Insert adds key (write-allocate), evicting the least-recently-used entry
// when full. Inserting a present key refreshes it.
func (c *LRU) Insert(key uint64) {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(uint64))
	}
	c.items[key] = c.order.PushFront(key)
}

// HitRatio reports hits / (hits+misses) over the cache's lifetime.
func (c *LRU) HitRatio() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Zipf samples keys 0..N-1 with P(k) ∝ 1/(k+1)^S via a precomputed CDF
// (exact inverse-transform sampling; O(log N) per draw).
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over n keys with exponent s (s=0: uniform;
// s≈0.99: the classic web/memcached popularity skew).
func NewZipf(n int, s float64) *Zipf {
	if n < 1 {
		panic("cache: zipf needs at least one key")
	}
	if s < 0 {
		panic("cache: zipf exponent must be non-negative")
	}
	cdf := make([]float64, n)
	acc := 0.0
	for k := 0; k < n; k++ {
		acc += 1 / math.Pow(float64(k+1), s)
		cdf[k] = acc
	}
	for k := range cdf {
		cdf[k] /= acc
	}
	cdf[n-1] = 1
	return &Zipf{cdf: cdf}
}

// Sample draws one key.
func (z *Zipf) Sample(r *rng.Source) uint64 {
	u := r.Float64()
	return uint64(sort.SearchFloat64s(z.cdf, u))
}

// PopularMass reports the probability mass of the k most popular keys —
// the analytic ceiling for the hit ratio of a size-k cache under pure-LFU.
func (z *Zipf) PopularMass(k int) float64 {
	if k <= 0 {
		return 0
	}
	if k >= len(z.cdf) {
		return 1
	}
	return z.cdf[k-1]
}
