package dist

import (
	"fmt"
	"strings"
)

// Spec is the JSON-friendly description of a distribution, used by the
// service.json / client.json config front-end. Examples:
//
//	{"type": "exponential", "mean_us": 100}
//	{"type": "deterministic", "value_us": 12.5}
//	{"type": "lognormal", "mean_us": 80, "stddev_us": 40}
//	{"type": "pareto", "shape": 1.5, "scale_us": 50}
//	{"type": "erlang", "k": 4, "mean_us": 200}
//	{"type": "uniform", "lo_us": 10, "hi_us": 20}
//	{"type": "histogram", "edges_us": [0,10,20], "counts": [5,3]}
//
// All duration fields are expressed in microseconds (the natural unit for
// microservice stage times) and converted to nanoseconds internally.
type Spec struct {
	Type     string    `json:"type"`
	MeanUs   float64   `json:"mean_us,omitempty"`
	StddevUs float64   `json:"stddev_us,omitempty"`
	ValueUs  float64   `json:"value_us,omitempty"`
	LoUs     float64   `json:"lo_us,omitempty"`
	HiUs     float64   `json:"hi_us,omitempty"`
	Shape    float64   `json:"shape,omitempty"`
	ScaleUs  float64   `json:"scale_us,omitempty"`
	K        int       `json:"k,omitempty"`
	EdgesUs  []float64 `json:"edges_us,omitempty"`
	Counts   []float64 `json:"counts,omitempty"`
	// Hyperexponential (type "hyperexp") parameters: with probability P
	// the mean is MeanUs, otherwise Mean2Us.
	P       float64 `json:"p,omitempty"`
	Mean2Us float64 `json:"mean2_us,omitempty"`
}

const usToNs = 1000.0

// Build constructs the sampler described by the spec.
func (s Spec) Build() (Sampler, error) {
	switch strings.ToLower(s.Type) {
	case "deterministic", "det", "constant":
		return NewDeterministic(s.ValueUs * usToNs), nil
	case "exponential", "exp":
		if s.MeanUs <= 0 {
			return nil, fmt.Errorf("dist: exponential spec needs positive mean_us")
		}
		return NewExponential(s.MeanUs * usToNs), nil
	case "uniform":
		if s.HiUs < s.LoUs {
			return nil, fmt.Errorf("dist: uniform spec needs lo_us <= hi_us")
		}
		return NewUniform(s.LoUs*usToNs, s.HiUs*usToNs), nil
	case "normal", "gaussian":
		if s.StddevUs < 0 {
			return nil, fmt.Errorf("dist: normal spec needs non-negative stddev_us")
		}
		return NewNormal(s.MeanUs*usToNs, s.StddevUs*usToNs), nil
	case "lognormal":
		if s.MeanUs <= 0 || s.StddevUs <= 0 {
			return nil, fmt.Errorf("dist: lognormal spec needs positive mean_us and stddev_us")
		}
		return LogNormalFromMoments(s.MeanUs*usToNs, s.StddevUs*usToNs), nil
	case "pareto":
		if s.Shape <= 0 || s.ScaleUs <= 0 {
			return nil, fmt.Errorf("dist: pareto spec needs positive shape and scale_us")
		}
		return NewPareto(s.Shape, s.ScaleUs*usToNs), nil
	case "erlang":
		if s.K < 1 || s.MeanUs <= 0 {
			return nil, fmt.Errorf("dist: erlang spec needs k >= 1 and positive mean_us")
		}
		return NewErlang(s.K, s.MeanUs*usToNs), nil
	case "weibull":
		if s.Shape <= 0 || s.ScaleUs <= 0 {
			return nil, fmt.Errorf("dist: weibull spec needs positive shape and scale_us")
		}
		return NewWeibull(s.Shape, s.ScaleUs*usToNs), nil
	case "hyperexp", "hyperexponential":
		if s.P < 0 || s.P > 1 || s.MeanUs <= 0 || s.Mean2Us <= 0 {
			return nil, fmt.Errorf("dist: hyperexp spec needs p in [0,1] and positive mean_us, mean2_us")
		}
		return NewHyperExp(s.P, s.MeanUs*usToNs, s.Mean2Us*usToNs), nil
	case "histogram", "empirical":
		edges := make([]float64, len(s.EdgesUs))
		for i, e := range s.EdgesUs {
			edges[i] = e * usToNs
		}
		return NewEmpirical(edges, s.Counts)
	case "":
		return nil, fmt.Errorf("dist: spec missing type")
	default:
		return nil, fmt.Errorf("dist: unknown distribution type %q", s.Type)
	}
}
