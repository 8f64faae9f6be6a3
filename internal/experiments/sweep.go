package experiments

import (
	"fmt"

	"uqsim/internal/des"
	"uqsim/internal/sim"
	"uqsim/internal/validate"
)

// Opts controls experiment runs.
type Opts struct {
	// Seed drives every scenario's random streams.
	Seed uint64
	// Scale shrinks measurement windows and sweep densities for quick
	// runs (1 = the full published sweep; 0.1 = smoke test). Values
	// outside (0, 1] are clamped to 1.
	Scale float64
}

func (o Opts) scale() float64 {
	if o.Scale <= 0 || o.Scale > 1 {
		return 1
	}
	return o.Scale
}

// window returns the warmup and measurement durations for a sweep point,
// scaled.
func (o Opts) window(warmup, duration des.Time) (des.Time, des.Time) {
	s := o.scale()
	w := des.Time(float64(warmup) * s)
	d := des.Time(float64(duration) * s)
	if w < 50*des.Millisecond {
		w = 50 * des.Millisecond
	}
	if d < 200*des.Millisecond {
		d = 200 * des.Millisecond
	}
	return w, d
}

// thin reduces a sweep grid according to the scale, always keeping the
// first and last points.
func (o Opts) thin(loads []float64) []float64 {
	s := o.scale()
	if s >= 1 || len(loads) <= 2 {
		return loads
	}
	keep := int(float64(len(loads)) * s)
	if keep < 2 {
		keep = 2
	}
	out := make([]float64, 0, keep)
	for i := 0; i < keep; i++ {
		idx := i * (len(loads) - 1) / (keep - 1)
		out = append(out, loads[idx])
	}
	return out
}

// builder constructs a scenario at one offered load.
type builder func(qps float64) (*sim.Sim, error)

// point is one measured sweep sample.
type point struct {
	OfferedQPS float64
	Rep        *sim.Report
}

// sweep measures the load–latency curve of a scenario across the load grid
// from..to by step (SweepGrid), thinned by the scale.
func sweep(o Opts, build builder, from, to, step float64, warmup, duration des.Time) ([]point, error) {
	loads, err := SweepGrid(from, to, step)
	if err != nil {
		return nil, err
	}
	w, d := o.window(warmup, duration)
	var out []point
	for _, qps := range o.thin(loads) {
		s, err := build(qps)
		if err != nil {
			return nil, fmt.Errorf("experiments: building at %v QPS: %w", qps, err)
		}
		rep, err := measure(s, w, d)
		if err != nil {
			return nil, fmt.Errorf("experiments: at %v QPS: %w", qps, err)
		}
		out = append(out, point{OfferedQPS: qps, Rep: rep})
	}
	return out, nil
}

// measure runs s for warmup w and measured window d, and checks the
// report's conservation identity, as every experiment does.
func measure(s *sim.Sim, w, d des.Time) (*sim.Report, error) {
	rep, err := s.Run(w, d)
	if err != nil {
		return nil, err
	}
	return rep, validate.Conservation(rep)
}

// addCurve writes a sweep's points into a table as rows tagged with a
// configuration label.
func addCurve(t *Table, label string, pts []point) {
	for _, p := range pts {
		t.Add(
			label,
			fmt.Sprintf("%.0f", p.OfferedQPS),
			fmt.Sprintf("%.0f", p.Rep.GoodputQPS),
			fmt.Sprintf("%.3f", p.Rep.Latency.Mean().Millis()),
			fmt.Sprintf("%.3f", p.Rep.Latency.P50().Millis()),
			fmt.Sprintf("%.3f", p.Rep.Latency.P99().Millis()),
		)
	}
}

// curveColumns is the shared header of load–latency tables.
func curveColumns() []string {
	return []string{"config", "offered_qps", "goodput_qps", "mean_ms", "p50_ms", "p99_ms"}
}

// saturation measures sustained goodput under the given overload: a
// one-point sweep.
func saturation(o Opts, build builder, overload float64) (float64, error) {
	pts, err := sweep(o, build, overload, overload, overload, 200*des.Millisecond, des.Second)
	if err != nil {
		return 0, err
	}
	return pts[0].Rep.GoodputQPS, nil
}
