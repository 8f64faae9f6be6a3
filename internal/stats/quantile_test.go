package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestP2AgainstExact: on iid samples the P² estimate must land close to
// the exact empirical quantile for several distributions and quantiles.
func TestP2AgainstExact(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	draws := map[string]func() float64{
		"uniform":     r.Float64,
		"exponential": r.ExpFloat64,
		"normal":      func() float64 { return 50 + 10*r.NormFloat64() },
	}
	for name, draw := range draws {
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			p := NewP2Quantile(q)
			samples := make([]float64, 0, 20000)
			for i := 0; i < 20000; i++ {
				x := draw()
				p.Add(x)
				samples = append(samples, x)
			}
			sort.Float64s(samples)
			exact := samples[int(q*float64(len(samples)))]
			got := p.Value()
			// Tolerate 10% relative error plus a small absolute slack for
			// near-zero exact quantiles.
			if math.Abs(got-exact) > 0.1*math.Abs(exact)+0.05 {
				t.Errorf("%s q=%v: P2 %.4f vs exact %.4f", name, q, got, exact)
			}
		}
	}
}

// TestP2SmallSamples: before five observations the estimator must degrade
// to a sensible order statistic instead of garbage.
func TestP2SmallSamples(t *testing.T) {
	p := NewP2Quantile(0.95)
	if p.Value() != 0 {
		t.Fatal("empty estimator should report 0")
	}
	p.Add(3)
	if p.Value() != 3 {
		t.Fatalf("single sample: got %v", p.Value())
	}
	p.Add(1)
	p.Add(2)
	if v := p.Value(); v != 3 {
		t.Fatalf("p95 of {1,2,3} should be the max, got %v", v)
	}
	if p.Count() != 3 {
		t.Fatalf("count = %d", p.Count())
	}
}

// TestP2Deterministic: identical observation sequences must produce
// identical estimates (the hedging policy's determinism depends on it).
func TestP2Deterministic(t *testing.T) {
	run := func() float64 {
		r := rand.New(rand.NewSource(7))
		p := NewP2Quantile(0.95)
		for i := 0; i < 5000; i++ {
			p.Add(r.ExpFloat64() * 1e6)
		}
		return p.Value()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("estimates differ: %v vs %v", a, b)
	}
}

// TestP2Monotone: the estimate stays within the observed range.
func TestP2Monotone(t *testing.T) {
	p := NewP2Quantile(0.9)
	for i := 0; i < 1000; i++ {
		p.Add(float64(i % 100))
	}
	if v := p.Value(); v < 0 || v > 99 {
		t.Fatalf("estimate %v outside observed range [0,99]", v)
	}
}

func TestP2PanicsOnBadQuantile(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("q=%v: want panic", q)
				}
			}()
			NewP2Quantile(q)
		}()
	}
}

// TestP2ResetEqualsNew: an estimator reset after use is, field for field
// and then estimate for estimate, a fresh NewP2Quantile.
func TestP2ResetEqualsNew(t *testing.T) {
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		r := rand.New(rand.NewSource(int64(q * 100)))
		used := NewP2Quantile(q)
		for i := 0; i < 1000; i++ {
			used.Add(r.ExpFloat64())
		}
		used.Reset()
		fresh := NewP2Quantile(q)
		if *used != *fresh {
			t.Fatalf("q=%v: reset %+v, new %+v", q, *used, *fresh)
		}
		for i := 0; i < 500; i++ {
			x := r.NormFloat64()
			used.Add(x)
			fresh.Add(x)
			if a, b := used.Value(), fresh.Value(); math.Float64bits(a) != math.Float64bits(b) || used.Count() != fresh.Count() {
				t.Fatalf("q=%v obs %d: reset estimator %v, new %v", q, i, a, b)
			}
		}
	}
}
