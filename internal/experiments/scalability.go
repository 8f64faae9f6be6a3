package experiments

import (
	"fmt"

	"uqsim/internal/apps"
	"uqsim/internal/des"
	"uqsim/internal/sim"
)

// scalability measures the simulator itself — the "scalable" half of the
// paper's title: the full simulator running the tail-at-scale app at
// growing cluster sizes, for absolute event throughput. Scale-out beyond
// one core is running many of these at once (internal/farm), not splitting
// one across cores.
var scalability = Spec{
	Cells: func(o Opts) (cells []Cell) {
		clusters := []int{10, 50, 100, 500, 1000}
		if o.scale() < 0.5 {
			clusters = []int{10, 100}
		}
		_, dur := o.window(0, 10*des.Second)
		for _, n := range clusters {
			cells = append(cells, Cell{Label: []string{fmt.Sprint(n), fmt.Sprintf("%.1f", dur.Seconds())}, Window: dur,
				Build: func() (*sim.Sim, error) {
					return apps.TailAtScale(apps.TailAtScaleConfig{
						Seed: o.Seed, QPS: 50, Servers: n, SlowFraction: 0.01,
					})
				}})
		}
		return cells
	},
	Reduce: rows("Scalability — simulator throughput vs simulated cluster size", "",
		"servers", "virtual_s", "requests", "events", "wall_ms", "events_per_wall_s"),
}
