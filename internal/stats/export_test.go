package stats

import (
	"math"
	"sort"

	"uqsim/internal/des"
)

// Percentile computes the exact q-quantile (nearest-rank) of the samples.
// It sorts a copy. Tests use it as the exact oracle that LatencyHist's
// bucketed quantiles and WindowedTail's are compared against.
func Percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// Reset clears the histogram.
func (h *LatencyHist) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = des.MaxTime
	h.max = 0
}

// Snapshot returns an independent copy.
func (h *LatencyHist) Snapshot() *LatencyHist {
	c := NewLatencyHist()
	c.Merge(h)
	return c
}

// CumulativeAt reports the fraction of observations ≤ v (the empirical
// CDF evaluated at v, with bucket resolution).
func (h *LatencyHist) CumulativeAt(v des.Time) float64 {
	if h.total == 0 {
		return 0
	}
	if v < h.min {
		return 0
	}
	if v >= h.max {
		return 1
	}
	b := bucketOf(v)
	var seen uint64
	for i := 0; i <= b && i < len(h.counts); i++ {
		seen += h.counts[i]
	}
	f := float64(seen) / float64(h.total)
	if f > 1 {
		f = 1
	}
	return f
}

// CDFPoint is one (latency, cumulative fraction) sample of the empirical
// distribution.
type CDFPoint struct {
	Latency des.Time
	Frac    float64
}

// CDF returns the empirical distribution as (bucket midpoint, cumulative
// fraction) points over the occupied buckets — ready for plotting or CSV.
func (h *LatencyHist) CDF() []CDFPoint {
	if h.total == 0 {
		return nil
	}
	var out []CDFPoint
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		out = append(out, CDFPoint{
			Latency: bucketMid(i),
			Frac:    float64(seen) / float64(h.total),
		})
	}
	return out
}
