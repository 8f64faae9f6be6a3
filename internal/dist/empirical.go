package dist

import (
	"fmt"
	"sort"

	"uqsim/internal/rng"
)

// Empirical samples from a profiled histogram — the paper's mechanism for
// feeding measured processing-time PDFs into the simulator (Table I,
// "histograms: processing time PDF per microservice").
//
// The histogram is a set of bins [Edges[i], Edges[i+1]) with observation
// counts; sampling picks a bin proportionally to its count and then draws
// uniformly within the bin, i.e. the piecewise-linear inverse-CDF estimate.
type Empirical struct {
	edges []float64 // len n+1, strictly increasing
	cum   []float64 // len n, cumulative normalized counts
	mean  float64
}

// NewEmpirical builds a histogram sampler from bin edges (len n+1,
// strictly increasing) and counts (len n, non-negative, positive sum).
func NewEmpirical(edges []float64, counts []float64) (*Empirical, error) {
	if len(edges) < 2 || len(counts) != len(edges)-1 {
		return nil, fmt.Errorf("dist: empirical needs n+1 edges for n counts (got %d edges, %d counts)", len(edges), len(counts))
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			return nil, fmt.Errorf("dist: empirical edges must be strictly increasing (edge %d)", i)
		}
	}
	total := 0.0
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("dist: empirical count %d is negative", i)
		}
		total += c
	}
	if total <= 0 {
		return nil, fmt.Errorf("dist: empirical histogram is empty")
	}
	e := &Empirical{
		edges: append([]float64(nil), edges...),
		cum:   make([]float64, len(counts)),
	}
	acc := 0.0
	mean := 0.0
	for i, c := range counts {
		p := c / total
		acc += p
		e.cum[i] = acc
		mean += p * (edges[i] + edges[i+1]) / 2
	}
	e.cum[len(e.cum)-1] = 1
	e.mean = mean
	return e, nil
}

func (e *Empirical) Sample(r *rng.Source) float64 {
	u := r.Float64()
	i := sort.SearchFloat64s(e.cum, u)
	if i >= len(e.cum) {
		i = len(e.cum) - 1
	}
	lo, hi := e.edges[i], e.edges[i+1]
	return lo + r.Float64()*(hi-lo)
}

func (e *Empirical) Mean() float64 { return e.mean }
