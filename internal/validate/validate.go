// Package validate is the automated counterpart of the paper's §IV: since
// no hardware testbed is available, the simulator is validated against
// closed-form queueing theory in every regime where exact results exist.
// Each check builds a scenario, runs it, and compares measured statistics
// to the analytic value within a tolerance that accounts for sampling
// noise and histogram resolution.
//
// The suite doubles as an experiment ("validation" in the registry) so the
// evidence ships with every result set.
package validate

import (
	"context"
	"fmt"
	"math"

	"uqsim/internal/analytic"
	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/graph"
	"uqsim/internal/service"
	"uqsim/internal/sim"
	"uqsim/internal/workload"
)

// Check is one validation case.
type Check struct {
	Name      string
	Measured  float64
	Expected  float64
	Tolerance float64 // relative
}

// Pass reports whether the measurement is within tolerance.
func (c Check) Pass() bool {
	if c.Expected == 0 {
		return math.Abs(c.Measured) <= c.Tolerance
	}
	return math.Abs(c.Measured-c.Expected)/math.Abs(c.Expected) <= c.Tolerance
}

// Error reports the relative deviation.
func (c Check) Error() float64 {
	if c.Expected == 0 {
		return math.Abs(c.Measured)
	}
	return math.Abs(c.Measured-c.Expected) / math.Abs(c.Expected)
}

// Options configures the suite.
type Options struct {
	Seed uint64
	// Duration is the measurement window per check (default 20s); the
	// tolerances assume the default.
	Duration des.Time
}

func (o Options) duration() des.Time {
	if o.Duration <= 0 {
		return 20 * des.Second
	}
	return o.Duration
}

// singleQueue builds and runs a one-service scenario, bound to ctx, and
// returns the report.
func singleQueue(ctx context.Context, o Options, svcSampler dist.Sampler, cores int, qps float64) (*sim.Report, error) {
	s := sim.New(sim.Options{Seed: o.Seed})
	defer s.Bind(ctx)()
	s.AddMachine("m0", cores+2, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("svc", svcSampler), sim.RoundRobin,
		sim.Placement{Machine: "m0", Cores: cores}); err != nil {
		return nil, err
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		return nil, err
	}
	s.SetClient(sim.ClientConfig{Pattern: workload.ConstantRate(qps)})
	warm := o.duration() / 10
	return s.Run(warm, o.duration())
}

// heavyTrafficFactor lengthens measurement windows near saturation: the
// relaxation time of an M/M/1 queue grows like 1/(1−ρ)², so a fixed
// window that suffices at ρ=0.5 is far too short at ρ=0.9.
func heavyTrafficFactor(rho float64) float64 {
	f := 1 / (4 * (1 - rho) * (1 - rho))
	if f < 1 {
		return 1
	}
	if f > 30 {
		return 30
	}
	return f
}

// MM1 validates mean and p99 sojourn time of M/M/1 at the given
// utilization.
func MM1(ctx context.Context, o Options, rho float64) ([]Check, error) {
	mu := 10000.0
	lambda := rho * mu
	scaled := o
	scaled.Duration = des.Time(float64(o.duration()) * heavyTrafficFactor(rho))
	rep, err := singleQueue(ctx, scaled, dist.NewExponential(1e9/mu), 1, lambda)
	if err != nil {
		return nil, err
	}
	return []Check{
		{
			Name:      fmt.Sprintf("M/M/1 ρ=%.2f mean sojourn", rho),
			Measured:  rep.Latency.Mean().Seconds(),
			Expected:  analytic.MM1MeanSojourn(lambda, mu),
			Tolerance: 0.08,
		},
		{
			Name:      fmt.Sprintf("M/M/1 ρ=%.2f p99 sojourn", rho),
			Measured:  rep.Latency.P99().Seconds(),
			Expected:  analytic.MM1SojournQuantile(lambda, mu, 0.99),
			Tolerance: 0.12,
		},
	}, nil
}

// MMk validates mean sojourn of M/M/k.
func MMk(ctx context.Context, o Options, k int, rho float64) ([]Check, error) {
	mu := 10000.0
	lambda := rho * mu * float64(k)
	rep, err := singleQueue(ctx, o, dist.NewExponential(1e9/mu), k, lambda)
	if err != nil {
		return nil, err
	}
	return []Check{{
		Name:      fmt.Sprintf("M/M/%d ρ=%.2f mean sojourn", k, rho),
		Measured:  rep.Latency.Mean().Seconds(),
		Expected:  analytic.MMkMeanSojourn(lambda, mu, k),
		Tolerance: 0.08,
	}}, nil
}

// MD1 validates mean sojourn of M/D/1 (Pollaczek–Khinchine with zero
// service variance).
func MD1(ctx context.Context, o Options, rho float64) ([]Check, error) {
	d := 100 * des.Microsecond
	lambda := rho / d.Seconds()
	rep, err := singleQueue(ctx, o, dist.NewDeterministic(float64(d)), 1, lambda)
	if err != nil {
		return nil, err
	}
	return []Check{{
		Name:      fmt.Sprintf("M/D/1 ρ=%.2f mean sojourn", rho),
		Measured:  rep.Latency.Mean().Seconds(),
		Expected:  analytic.MD1MeanSojourn(lambda, d.Seconds()),
		Tolerance: 0.08,
	}}, nil
}

// MG1 validates the Pollaczek–Khinchine formula with an Erlang-4 service
// (squared coefficient of variation 1/4).
func MG1Erlang(ctx context.Context, o Options, rho float64) ([]Check, error) {
	mean := 100 * des.Microsecond
	lambda := rho / mean.Seconds()
	rep, err := singleQueue(ctx, o, dist.NewErlang(4, float64(mean)), 1, lambda)
	if err != nil {
		return nil, err
	}
	es := mean.Seconds()
	es2 := es * es * (1 + 0.25) // E[S²] = Var + mean² = mean²(1/k + 1)
	return []Check{{
		Name:      fmt.Sprintf("M/E4/1 ρ=%.2f mean sojourn", rho),
		Measured:  rep.Latency.Mean().Seconds(),
		Expected:  analytic.MG1MeanWait(lambda, es, es2) + es,
		Tolerance: 0.08,
	}}, nil
}

// ForkJoin validates the zero-load fan-out/fan-in latency: max of n iid
// exponentials.
func ForkJoin(ctx context.Context, o Options, n int) ([]Check, error) {
	s := sim.New(sim.Options{Seed: o.Seed})
	defer s.Bind(ctx)()
	const perMachine = 32
	nM := (n + perMachine - 1) / perMachine
	for i := 0; i < nM; i++ {
		s.AddMachine(fmt.Sprintf("m%d", i), perMachine, cluster.FreqSpec{})
	}
	s.AddMachine("root", 4, cluster.FreqSpec{})
	var placements []sim.Placement
	for i := 0; i < n; i++ {
		placements = append(placements, sim.Placement{
			Machine: fmt.Sprintf("m%d", i/perMachine), Cores: 1,
		})
	}
	mean := des.Millisecond
	if _, err := s.Deploy(service.SingleStage("leaf", dist.NewExponential(float64(mean))),
		sim.RoundRobin, placements...); err != nil {
		return nil, err
	}
	if _, err := s.Deploy(service.SingleStage("rootsvc", dist.NewDeterministic(1)),
		sim.RoundRobin, sim.Placement{Machine: "root", Cores: 2}); err != nil {
		return nil, err
	}
	nodes := []graph.Node{{ID: 0, Service: "rootsvc", Instance: -1}}
	for i := 0; i < n; i++ {
		nodes[0].Children = append(nodes[0].Children, i+1)
		nodes = append(nodes, graph.Node{ID: i + 1, Service: "leaf", Instance: i, Children: []int{n + 1}})
	}
	nodes = append(nodes, graph.Node{ID: n + 1, Service: "rootsvc", Instance: -1})
	if err := s.SetTopology(&graph.Topology{
		Trees: []graph.Tree{{Name: "fan", Weight: 1, Root: 0, Nodes: nodes}},
	}); err != nil {
		return nil, err
	}
	// Very light load so queueing is negligible.
	s.SetClient(sim.ClientConfig{Pattern: workload.ConstantRate(20)})
	rep, err := s.Run(0, o.duration())
	if err != nil {
		return nil, err
	}
	return []Check{
		{
			Name:      fmt.Sprintf("fork-join n=%d mean of max", n),
			Measured:  rep.Latency.Mean().Seconds(),
			Expected:  analytic.MaxOfExponentialsMean(n, mean.Seconds()) / (1 - 0.02*float64(0)),
			Tolerance: 0.10,
		},
		{
			Name:      fmt.Sprintf("fork-join n=%d p99 of max", n),
			Measured:  rep.Latency.P99().Seconds(),
			Expected:  analytic.MaxOfExponentialsQuantile(n, mean.Seconds(), 0.99),
			Tolerance: 0.15,
		},
	}, nil
}

// Suite runs the whole validation battery, every run bound to ctx.
func Suite(ctx context.Context, o Options) ([]Check, error) {
	var out []Check
	add := func(cs []Check, err error) error {
		if err != nil {
			return err
		}
		out = append(out, cs...)
		return nil
	}
	for _, rho := range []float64{0.3, 0.5, 0.7, 0.9} {
		if err := add(MM1(ctx, o, rho)); err != nil {
			return nil, err
		}
	}
	for _, k := range []int{2, 4, 8} {
		if err := add(MMk(ctx, o, k, 0.7)); err != nil {
			return nil, err
		}
	}
	for _, rho := range []float64{0.5, 0.8} {
		if err := add(MD1(ctx, o, rho)); err != nil {
			return nil, err
		}
		if err := add(MG1Erlang(ctx, o, rho)); err != nil {
			return nil, err
		}
	}
	for _, n := range []int{2, 8, 32} {
		if err := add(ForkJoin(ctx, o, n)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
