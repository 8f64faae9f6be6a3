package stats

import (
	"math"
	"testing"
	"testing/quick"

	"uqsim/internal/des"
	"uqsim/internal/rng"
)

func TestLatencyHistEmpty(t *testing.T) {
	h := NewLatencyHist()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.99) != 0 || h.Min() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestLatencyHistSingle(t *testing.T) {
	h := NewLatencyHist()
	h.Record(5 * des.Millisecond)
	if h.Count() != 1 {
		t.Fatal("count")
	}
	if h.Mean() != 5*des.Millisecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got != 5*des.Millisecond {
			t.Fatalf("q=%v → %v, want 5ms (single sample clamps to min/max)", q, got)
		}
	}
}

func TestLatencyHistQuantileAccuracy(t *testing.T) {
	// Exponential samples: histogram p99 should match exact p99 within
	// the bucket resolution (~4%) plus sampling noise.
	r := rng.New(1)
	h := NewLatencyHist()
	var raw []float64
	for i := 0; i < 200000; i++ {
		v := r.ExpFloat64() * 1e6 // mean 1ms in ns
		h.Record(des.FromNanos(v))
		raw = append(raw, v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := Percentile(raw, q)
		got := float64(h.Quantile(q))
		if math.Abs(got-exact)/exact > 0.05 {
			t.Errorf("q=%v: hist %v vs exact %v", q, got, exact)
		}
	}
	if math.Abs(float64(h.Mean())-1e6)/1e6 > 0.01 {
		t.Errorf("mean = %v, want ≈1ms", h.Mean())
	}
}

func TestLatencyHistNegativeClamps(t *testing.T) {
	h := NewLatencyHist()
	h.Record(-5)
	if h.Min() != 0 || h.Quantile(1) != 0 {
		t.Fatal("negative observation should clamp to 0")
	}
}

func TestLatencyHistMergeEqualsCombined(t *testing.T) {
	r := rng.New(2)
	a, b, all := NewLatencyHist(), NewLatencyHist(), NewLatencyHist()
	for i := 0; i < 10000; i++ {
		v := des.FromNanos(r.ExpFloat64() * 5e5)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		all.Record(v)
	}
	a.Merge(b)
	if a.Count() != all.Count() {
		t.Fatal("merged count mismatch")
	}
	if a.Quantile(0.99) != all.Quantile(0.99) {
		t.Fatalf("merged p99 %v vs combined %v", a.Quantile(0.99), all.Quantile(0.99))
	}
	if a.Min() != all.Min() || a.Quantile(1) != all.Quantile(1) {
		t.Fatal("merged min/max mismatch")
	}
}

func TestLatencyHistResetAndSnapshot(t *testing.T) {
	h := NewLatencyHist()
	h.Record(100)
	snap := h.Snapshot()
	h.Reset()
	if h.Count() != 0 {
		t.Fatal("reset did not clear")
	}
	if snap.Count() != 1 {
		t.Fatal("snapshot should be independent")
	}
}

// Property: histogram quantiles are monotone in q and bounded by [min,max].
func TestLatencyHistQuantileMonotoneProperty(t *testing.T) {
	prop := func(seed uint64, n uint16) bool {
		r := rng.New(seed)
		h := NewLatencyHist()
		count := int(n%500) + 1
		for i := 0; i < count; i++ {
			h.Record(des.FromNanos(r.Float64() * 1e8))
		}
		prev := des.Time(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev || v < h.Min() || v > h.Quantile(1) {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileExact(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	cases := map[float64]float64{0: 1, 0.2: 1, 0.4: 2, 0.5: 3, 0.8: 4, 1: 5, 0.99: 5}
	for q, want := range cases {
		if got := Percentile(s, q); got != want {
			t.Errorf("P%v = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty percentile should be NaN")
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries("p99")
	ts.Record(0, 1)
	ts.Record(des.Second, 3)
	ts.Record(2*des.Second, 8)
	if len(ts.Points()) != 3 {
		t.Fatal("len")
	}
	if p := ts.Points()[2]; p.T != 2*des.Second || p.V != 8 {
		t.Fatalf("last point = %+v", p)
	}
}

func TestWindowedTailEviction(t *testing.T) {
	w := NewWindowedTail(des.Second)
	w.Record(0, 10*des.Millisecond)
	w.Record(500*des.Millisecond, 20*des.Millisecond)
	w.Record(1500*des.Millisecond, 30*des.Millisecond)
	// At t=1.6s the window [0.6s,1.6s] holds only the 30ms observation.
	q, ok := w.Quantile(1600*des.Millisecond, 0.99)
	if !ok || q != 30*des.Millisecond {
		t.Fatalf("q = %v,%v", q, ok)
	}
	if n := len(w.obs) - w.head; n != 1 {
		t.Fatalf("live = %d, want 1", n)
	}
}

func TestWindowedTailQuantile(t *testing.T) {
	w := NewWindowedTail(10 * des.Second)
	for i := 1; i <= 100; i++ {
		w.Record(des.Time(i)*des.Millisecond, des.Time(i)*des.Microsecond)
	}
	now := des.Time(200) * des.Millisecond
	q, ok := w.Quantile(now, 0.99)
	if !ok || q != 99*des.Microsecond {
		t.Fatalf("p99 = %v,%v want 99us", q, ok)
	}
}

func TestWindowedTailEmpty(t *testing.T) {
	w := NewWindowedTail(des.Second)
	if _, ok := w.Quantile(0, 0.5); ok {
		t.Fatal("empty window should report !ok")
	}
	w.Record(0, 1)
	if _, ok := w.Quantile(2*des.Second, 0.5); ok {
		t.Fatal("window emptied by eviction should report !ok")
	}
}

func TestCumulativeAtAndCDF(t *testing.T) {
	h := NewLatencyHist()
	for i := 1; i <= 100; i++ {
		h.Record(des.Time(i) * des.Millisecond)
	}
	if got := h.CumulativeAt(des.Microsecond); got != 0 {
		t.Fatalf("CDF below min = %v", got)
	}
	if got := h.CumulativeAt(200 * des.Millisecond); got != 1 {
		t.Fatalf("CDF above max = %v", got)
	}
	mid := h.CumulativeAt(50 * des.Millisecond)
	if mid < 0.45 || mid > 0.55 {
		t.Fatalf("CDF(50ms) = %v, want ≈0.5", mid)
	}
	pts := h.CDF()
	if len(pts) == 0 {
		t.Fatal("no CDF points")
	}
	prevF, prevL := -1.0, des.Time(-1)
	for _, p := range pts {
		if p.Frac < prevF || p.Latency < prevL {
			t.Fatalf("CDF not monotone at %v", p)
		}
		prevF, prevL = p.Frac, p.Latency
	}
	if pts[len(pts)-1].Frac != 1 {
		t.Fatalf("CDF must end at 1, got %v", pts[len(pts)-1].Frac)
	}
	if NewLatencyHist().CDF() != nil {
		t.Fatal("empty CDF should be nil")
	}
	if NewLatencyHist().CumulativeAt(5) != 0 {
		t.Fatal("empty CumulativeAt should be 0")
	}
}
