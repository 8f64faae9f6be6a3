package experiments

import (
	"fmt"
	"time"

	"uqsim/internal/apps"
	"uqsim/internal/des"
	"uqsim/internal/validate"
)

// Scalability measures the simulator itself — the "scalable" half of the
// paper's title: the full simulator running the tail-at-scale app at
// growing cluster sizes, for absolute event throughput. Scale-out beyond
// one core is running many of these at once (internal/farm), not splitting
// one across cores.
func Scalability(o Opts) (*Table, error) {
	t := NewTable("Scalability — simulator throughput vs simulated cluster size",
		"servers", "virtual_s", "requests", "events", "wall_ms", "events_per_wall_s")
	clusters := []int{10, 50, 100, 500, 1000}
	if o.scale() < 0.5 {
		clusters = []int{10, 100}
	}
	_, dur := o.window(0, 10*des.Second)
	for _, n := range clusters {
		s, err := apps.TailAtScale(apps.TailAtScaleConfig{
			Seed: o.Seed, QPS: 50, Servers: n, SlowFraction: 0.01,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rep, err := s.Run(0, dur)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		if err := validate.Conservation(rep); err != nil {
			return nil, err
		}
		events := s.Engine().Processed()
		t.Add(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", dur.Seconds()),
			fmt.Sprintf("%d", rep.Completions),
			fmt.Sprintf("%d", events),
			fmt.Sprintf("%d", wall.Milliseconds()),
			fmt.Sprintf("%.0f", float64(events)/wall.Seconds()),
		)
	}
	return t, nil
}
