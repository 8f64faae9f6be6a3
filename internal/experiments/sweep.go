package experiments

import (
	"slices"

	"uqsim/internal/des"
	"uqsim/internal/sim"
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
	return max(des.Time(float64(warmup)*s), 50*des.Millisecond),
		max(des.Time(float64(duration)*s), 200*des.Millisecond)
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

// loads expands the grid from..to by step (SweepGrid), thinned by the
// scale. Every grid is an experiment's own constant, so an error is a bug.
func (o Opts) loads(from, to, step float64) []float64 {
	g, err := SweepGrid(from, to, step)
	if err != nil {
		panic(err)
	}
	return o.thin(g)
}

// curveColumns is the header of a load–latency table.
var curveColumns = []string{"config", "offered_qps", "goodput_qps", "mean_ms", "p50_ms", "p99_ms"}

// curve lists one cell per load of the grid from..to by step, thinned by
// the scale: a 300ms warm-up and the scaled window, labelled with label
// and the load.
func curve(o Opts, label []string, from, to, step float64, window des.Time,
	build func(qps float64) (*sim.Sim, error)) []Cell {
	w, d := o.window(300*des.Millisecond, window)
	var cells []Cell
	for _, qps := range o.loads(from, to, step) {
		cells = append(cells, Cell{Label: slices.Concat(label, []string{f0(qps)}), Warmup: w, Window: d,
			Build: func() (*sim.Sim, error) { return build(qps) }})
	}
	return cells
}

// saturation is the one cell that measures sustained goodput at an
// overload: a 200ms warm-up and a one-second window.
func saturation(o Opts, label []string, build func() (*sim.Sim, error)) Cell {
	w, d := o.window(200*des.Millisecond, des.Second)
	return Cell{Label: label, Warmup: w, Window: d, Build: build}
}
