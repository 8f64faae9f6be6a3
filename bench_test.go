package uqsim

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (each regenerates the experiment at reduced scale;
// run `go run ./cmd/uqsim experiments all` for the full-scale sweeps), an
// ablation bench per DESIGN.md design decision, and simulator-throughput
// benchmarks backing the "scalable" claim.

import (
	"testing"

	"uqsim/internal/experiments"
)

// benchScale shrinks each experiment's windows/sweeps so a benchmark
// iteration stays in the hundreds of milliseconds.
const benchScale = 0.08

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, experiments.Opts{Seed: 1, Scale: benchScale}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- paper figures and tables ----

func BenchmarkFig05TwoTier(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkFig06ThreeTier(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig08LoadBalancing(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig10Fanout(b *testing.B)        { benchExperiment(b, "fig10") }
func BenchmarkFig12aThrift(b *testing.B)       { benchExperiment(b, "fig12a") }
func BenchmarkFig12bSocialNetwork(b *testing.B) {
	benchExperiment(b, "fig12b")
}
func BenchmarkFig13BigHouse(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14TailAtScale(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15Diurnal(b *testing.B)     { benchExperiment(b, "fig15") }
func BenchmarkFig16PowerTrace(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkTab3PowerViolations(b *testing.B) {
	benchExperiment(b, "table3")
}

// ---- validation & extensions ----

func BenchmarkValidationSuite(b *testing.B)  { benchExperiment(b, "validation") }
func BenchmarkExtTimeouts(b *testing.B)      { benchExperiment(b, "ext-timeouts") }
func BenchmarkExtEmergentCache(b *testing.B) { benchExperiment(b, "ext-cache") }
func BenchmarkScalability(b *testing.B)      { benchExperiment(b, "scalability") }
func BenchmarkResilience(b *testing.B)       { benchExperiment(b, "resilience") }
func BenchmarkOverload(b *testing.B)         { benchExperiment(b, "overload") }

// ---- DESIGN.md ablations ----

func BenchmarkAblationNoBatching(b *testing.B) { benchExperiment(b, "ablation-batching") }
func BenchmarkAblationNoNetproc(b *testing.B)  { benchExperiment(b, "ablation-netproc") }
func BenchmarkAblationNoBlocking(b *testing.B) { benchExperiment(b, "ablation-blocking") }
func BenchmarkAblationLBPolicies(b *testing.B) { benchExperiment(b, "ablation-lb") }

// ---- simulator throughput ----

// BenchmarkSimulatorEventRate measures how many simulated requests per
// wall-clock second the two-tier model sustains (each request is ~22
// discrete events across stages, netproc, and pools: events/op over req/op,
// and des.events_per_req in the repository benchmark's traced run).
func BenchmarkSimulatorEventRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := TwoTier(TwoTierConfig{Seed: uint64(i + 1), QPS: 40000, Network: true})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := s.Run(0, Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Completions), "req/op")
		b.ReportMetric(float64(s.Engine().Processed()), "events/op")
	}
}

// BenchmarkSimulatorEventRateWithPolicies is BenchmarkSimulatorEventRate
// with a resilience policy guarding every memcached edge, measuring the
// per-call cost of the attempt/timeout machinery on the hot path. The
// timeout is far above the healthy p99, so no retries fire — this isolates
// policy bookkeeping from fault handling.
func BenchmarkSimulatorEventRateWithPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := TwoTier(TwoTierConfig{Seed: uint64(i + 1), QPS: 40000, Network: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.SetServicePolicy("memcached", ResiliencePolicy{
			Timeout: Second, MaxRetries: 2, BackoffBase: Millisecond,
		}); err != nil {
			b.Fatal(err)
		}
		rep, err := s.Run(0, Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Completions), "req/op")
		b.ReportMetric(float64(s.Engine().Processed()), "events/op")
	}
}

// BenchmarkSimulatorEventRateWithHedging measures the cost of hedged
// dispatch on the hot path: an 8-way load-balanced cluster with a p95
// quantile hedge on the leaf edge, so every call pays the per-edge
// latency sampling and hedge-timer arm/cancel, and the ~5% of calls whose
// backup actually fires pay the race bookkeeping too.
func BenchmarkSimulatorEventRateWithHedging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := LoadBalanced(ScaleOutConfig{Seed: uint64(i + 1), QPS: 20000, Servers: 8})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.SetServicePolicy("nginx", ResiliencePolicy{
			Hedge: &HedgeSpec{Quantile: 0.95, MinSamples: 64},
		}); err != nil {
			b.Fatal(err)
		}
		rep, err := s.Run(0, Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Completions), "req/op")
		b.ReportMetric(float64(rep.HedgesIssued), "hedges/op")
		b.ReportMetric(float64(s.Engine().Processed()), "events/op")
	}
}

// BenchmarkSimulatorLargeFanout measures a 500-leaf fan-out cluster — the
// "scales beyond testbed sizes" use case.
func BenchmarkSimulatorLargeFanout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := TailAtScale(TailAtScaleConfig{
			Seed: uint64(i + 1), QPS: 50, Servers: 500, SlowFraction: 0.01,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := s.Run(0, 2*Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Completions), "req/op")
	}
}
