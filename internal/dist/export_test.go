package dist

import (
	"encoding/json"
	"fmt"
	"sort"

	"uqsim/internal/rng"
)

// ParseSpec decodes a JSON blob into a sampler.
func ParseSpec(raw []byte) (Sampler, error) {
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("dist: bad spec JSON: %w", err)
	}
	return s.Build()
}

// SCV reports the squared coefficient of variation (≥ 1 for H2).
func (h HyperExp) SCV() float64 {
	m := h.Mean()
	es2 := 2 * (h.P*h.Mean1*h.Mean1 + (1-h.P)*h.Mean2*h.Mean2)
	return es2/(m*m) - 1
}

// FromSamples builds an Empirical from raw observations using equal-count
// (quantile) bins, mirroring how profiled timestamps become a histogram.
func FromSamples(samples []float64, bins int) (*Empirical, error) {
	if len(samples) < 2 {
		return nil, fmt.Errorf("dist: need at least 2 samples")
	}
	if bins < 1 {
		return nil, fmt.Errorf("dist: need at least 1 bin")
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if bins > len(sorted)-1 {
		bins = len(sorted) - 1
	}
	edges := make([]float64, 0, bins+1)
	counts := make([]float64, 0, bins)
	prev := sorted[0]
	edges = append(edges, prev)
	for i := 1; i <= bins; i++ {
		idx := i * (len(sorted) - 1) / bins
		edge := sorted[idx]
		if edge <= prev {
			continue // collapse duplicate quantiles
		}
		edges = append(edges, edge)
		counts = append(counts, float64(idx*(len(sorted)-1)/bins))
		prev = edge
	}
	if len(edges) < 2 {
		// All samples identical: widen artificially so the sampler works.
		edges = []float64{sorted[0], sorted[0] + 1}
		counts = []float64{1}
	} else {
		// Recompute counts as actual per-bin tallies.
		counts = make([]float64, len(edges)-1)
		for _, s := range sorted {
			i := sort.SearchFloat64s(edges, s)
			if i > 0 {
				i--
			}
			if i >= len(counts) {
				i = len(counts) - 1
			}
			counts[i]++
		}
	}
	return NewEmpirical(edges, counts)
}

// FreqTable maps CPU frequencies (MHz) to processing-time samplers,
// mirroring the paper's per-DVFS-setting histograms: "to simulate the
// impact of power management, we adjust the processing time of each
// execution stage as frequency changes by providing histograms
// corresponding to different frequencies."
//
// Lookups at a frequency without an explicit entry fall back to scaling the
// nominal sampler by nominalMHz/f — the standard linear CPU-bound model.
type FreqTable struct {
	nominalMHz float64
	nominal    Sampler
	entries    map[int]Sampler // key: MHz
	keys       []int           // sorted MHz keys
}

// NewFreqTable creates a table whose fallback behaviour scales the nominal
// sampler (calibrated at nominalMHz) linearly with frequency.
func NewFreqTable(nominalMHz float64, nominal Sampler) *FreqTable {
	if nominalMHz <= 0 {
		panic("dist: nominal frequency must be positive")
	}
	if nominal == nil {
		panic("dist: nominal sampler must not be nil")
	}
	return &FreqTable{
		nominalMHz: nominalMHz,
		nominal:    nominal,
		entries:    make(map[int]Sampler),
	}
}

// Set registers an explicit sampler for the given frequency.
func (t *FreqTable) Set(mhz int, s Sampler) {
	if s == nil {
		panic("dist: nil sampler in freq table")
	}
	if _, ok := t.entries[mhz]; !ok {
		t.keys = append(t.keys, mhz)
		sort.Ints(t.keys)
	}
	t.entries[mhz] = s
}

// At returns the sampler for frequency mhz: the exact entry if present,
// otherwise the frequency-scaled nominal sampler.
func (t *FreqTable) At(mhz float64) Sampler {
	if s, ok := t.entries[int(mhz)]; ok {
		return s
	}
	if mhz <= 0 {
		panic(fmt.Sprintf("dist: freq table lookup at non-positive frequency %v", mhz))
	}
	if mhz == t.nominalMHz {
		return t.nominal
	}
	return Scaled{Base: t.nominal, Factor: t.nominalMHz / mhz}
}

// SampleAt draws one processing time at the given frequency.
func (t *FreqTable) SampleAt(mhz float64, r *rng.Source) float64 {
	return t.At(mhz).Sample(r)
}

// Nominal reports the nominal sampler and its calibration frequency.
func (t *FreqTable) Nominal() (Sampler, float64) { return t.nominal, t.nominalMHz }

// Frequencies reports the explicitly registered frequencies, ascending.
func (t *FreqTable) Frequencies() []int { return append([]int(nil), t.keys...) }
