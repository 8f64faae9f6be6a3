// Package stats provides the measurement side of the simulator: latency
// histograms with quantile queries, windowed tail trackers for the power
// manager, and time series.
package stats

import (
	"fmt"
	"math"

	"uqsim/internal/des"
)

// LatencyHist is a log-binned latency histogram in the spirit of HDR
// histograms: values from 1ns to ~4.6h are bucketed with ≤ ~2% relative
// error per bucket, giving O(1) record and O(buckets) quantile queries
// regardless of sample count.
type LatencyHist struct {
	counts []uint64
	total  uint64
	sum    float64
	min    des.Time
	max    des.Time
}

// Geometric bucket layout: bucket i covers [base^i, base^(i+1)) ns.
const (
	histBase    = 1.02 // ~2% bucket width → ≤1% mid-point error
	histBuckets = 1600 // covers 1ns … ~1.8h
)

var histLogBase = math.Log(histBase)

func bucketOf(v des.Time) int {
	if v <= 1 {
		return 0
	}
	b := int(math.Log(float64(v)) / histLogBase)
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

func bucketMid(i int) des.Time {
	lo := math.Pow(histBase, float64(i))
	hi := lo * histBase
	return des.FromNanos((lo + hi) / 2)
}

// NewLatencyHist returns an empty histogram.
func NewLatencyHist() *LatencyHist {
	return &LatencyHist{
		counts: make([]uint64, histBuckets),
		min:    des.MaxTime,
	}
}

// Record adds one latency observation. Negative values are clamped to zero.
func (h *LatencyHist) Record(v des.Time) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of recorded observations.
func (h *LatencyHist) Count() uint64 { return h.total }

// Mean reports the exact mean of recorded observations (0 when empty).
func (h *LatencyHist) Mean() des.Time {
	if h.total == 0 {
		return 0
	}
	return des.FromNanos(h.sum / float64(h.total))
}

// Min reports the smallest recorded observation (0 when empty).
func (h *LatencyHist) Min() des.Time {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Quantile reports the latency at quantile q in [0,1] with the histogram's
// bucket resolution. Exact extremes: q=0 returns Min, q=1 the largest observation.
func (h *LatencyHist) Quantile(q float64) des.Time {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			mid := bucketMid(i)
			// Clamp the estimate into the observed range so coarse
			// buckets never report impossible values.
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// P50, P95, P99, P999 are convenience quantile accessors.
func (h *LatencyHist) P50() des.Time  { return h.Quantile(0.50) }
func (h *LatencyHist) P95() des.Time  { return h.Quantile(0.95) }
func (h *LatencyHist) P99() des.Time  { return h.Quantile(0.99) }
func (h *LatencyHist) P999() des.Time { return h.Quantile(0.999) }

// Merge adds all observations of other into h.
func (h *LatencyHist) Merge(other *LatencyHist) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.total > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// String summarizes the histogram for logs.
func (h *LatencyHist) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.total, h.Mean(), h.P50(), h.P99(), h.max)
}
