package experiments

import (
	"fmt"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/service"
	"uqsim/internal/sim"
	"uqsim/internal/workload"
)

// metastableScenario is a two-machine, two-tier chain: a cheap front tier
// on m0 calling a 1-core backend on m1 (exp 1ms service, ≈1000 QPS
// capacity) across the one machine boundary a partition can cut. The
// client gives up at 100ms — far beyond the healthy p99 (~23ms at 0.8×
// load), so timeouts are rare until something breaks — and resends
// timed-out requests while the abandoned work runs to completion
// (retryPolicy sets how often). That resend is the feedback loop that
// lets a transient partition become a permanent overload.
func metastableScenario(seed uint64, qps float64) (*sim.Sim, error) {
	s := sim.New(sim.Options{Seed: seed})
	s.AddMachine("m0", 4, cluster.FreqSpec{})
	s.AddMachine("m1", 2, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("front", dist.NewDeterministic(float64(100*des.Microsecond))),
		sim.RoundRobin, sim.Placement{Machine: "m0", Cores: 2}); err != nil {
		return nil, err
	}
	if _, err := s.Deploy(service.SingleStage("backend", dist.NewExponential(float64(des.Millisecond))),
		sim.RoundRobin, sim.Placement{Machine: "m1", Cores: 1}); err != nil {
		return nil, err
	}
	if err := s.SetTopology(graph.Linear("main", "front", "backend")); err != nil {
		return nil, err
	}
	s.SetClient(sim.ClientConfig{
		Pattern: workload.ConstantRate(qps),
		Timeout: 100 * des.Millisecond,
	})
	return s, nil
}

// retryPolicy sets the client's resends and svc's edge policy in
// metastable and regionloss. The naive one is unbounded in spirit: a deep
// retry budget with near-immediate re-offer, on top of the client's own
// storm of 8 resends. The mitigated one resends once, caps retries,
// backs off, breaks the circuit, and serves the queue CoDel-LIFO, shedding
// the surge.
func retryPolicy(s *sim.Sim, svc string, timeout des.Time, naive bool) error {
	cc := s.Client()
	cc.MaxRetries = 1
	if naive {
		cc.MaxRetries = 8
	}
	s.SetClient(cc)
	if naive {
		return s.SetServicePolicy(svc, fault.Policy{
			Timeout: timeout, MaxRetries: 6,
			BackoffBase: des.Millisecond, BackoffJitter: 0.5,
		})
	}
	if err := s.SetServicePolicy(svc, fault.Policy{
		Timeout: timeout, MaxRetries: 1,
		BackoffBase: 20 * des.Millisecond, BackoffJitter: 0.5,
		Breaker: &fault.BreakerSpec{
			ErrorThreshold: 0.5, Window: 20, Cooldown: 100 * des.Millisecond,
		},
	}); err != nil {
		return err
	}
	return s.SetQueueDiscipline(svc, fault.QueueDiscipline{
		Kind: fault.QueueCoDelLIFO, Target: 5 * des.Millisecond,
	})
}

// degraded totals the time between from and end spent degraded: the
// sum of bins whose forward 50ms sliding-window goodput is below half the
// offered load. The 50% threshold sits far enough under the healthy mean
// that Poisson bin noise cannot trip it, so a healthy run reports ~0 and a
// pinned retry storm reports nearly the whole post-heal window. The total
// is in milliseconds, with a "+" when the final window is still degraded —
// the run ended before the system recovered.
func (gb *goodputBins) degraded(from, end des.Time, offeredQPS float64) string {
	threshold := 0.5 * offeredQPS * mttrBin.Seconds() * goodputWindow
	degraded, pinned := 0, false
	for b := int(from / mttrBin); b+goodputWindow <= int(end/mttrBin); b++ {
		pinned = float64(gb.window(b)) < threshold
		if pinned {
			degraded++
		}
	}
	out := fmt.Sprintf("%.0f", (des.Time(degraded) * mttrBin).Millis())
	if pinned {
		out += "+"
	}
	return out
}

// metastable reproduces a metastable failure: a 2-second-scale network
// partition between the tiers at 0.8× load. While the partition is open
// every front→backend attempt fails fast as unreachable; retries at the
// edge and at the client convert the outage into a standing wave of
// re-offered work. After the heal, the naive configuration (deep retry
// budgets, short backoff, aggressive client re-issue) keeps the backend
// past saturation — timed-out requests are re-offered faster than the
// queue drains, served work is abandoned before the client sees it, and
// goodput stays pinned near zero long after the network is whole. The
// mitigated configuration (capped retries, circuit breaker, CoDel-LIFO
// queue) sheds the surge and recovers within a bounded MTTR.
var metastable = Spec{
	Cells: func(o Opts) (cells []Cell) {
		w, d := o.window(300*des.Millisecond, 5*des.Second)
		start := w + des.Time(float64(d)*0.2)
		heal := start + des.Time(float64(d)*0.4)
		const offered = 800.0
		for _, c := range []struct {
			label              string
			naive, partitioned bool
		}{
			{"naive-no-fault", true, false},
			{"naive-retries", true, true},
			{"mitigated", false, true},
		} {
			var gb *goodputBins
			cells = append(cells, Cell{Label: []string{c.label}, Warmup: w, Window: d,
				Build: func() (*sim.Sim, error) {
					s, err := metastableScenario(o.Seed, offered)
					if err != nil {
						return nil, err
					}
					// Naive: the 40ms edge timeout is harmless while the queue
					// is short (p(sojourn > 40ms) ≈ 3e-4) and catastrophic once
					// it is not.
					err = retryPolicy(s, "backend", 40*des.Millisecond, c.naive)
					if err == nil && c.partitioned {
						err = s.InstallFaults(fault.Plan{Events: []fault.Event{{
							At: start, Kind: fault.PartitionStart, Until: heal,
							GroupA: []string{"m0"}, GroupB: []string{"m1"},
						}}})
					}
					gb = trackGoodput(s)
					return s, err
				},
				Read: func(s *sim.Sim, _ *sim.Report) any {
					var unreach uint64
					if n := s.Net(); n != nil {
						unreach = n.Unreachable()
					}
					return cols{"unreachable": fmt.Sprint(unreach), "degraded_ms_after_heal": gb.degraded(heal, w+d, offered)}
				}})
		}
		return cells
	},
	Reduce: rows("Metastable failure — retry storm outlives a healed partition",
		"2s partition at 0.8× load; degraded: total time after the heal with "+
			"smoothed goodput under 50% of offered load ('+' = still degraded when the "+
			"run ended); leaked must be 0",
		"scenario", "goodput_qps", "p99_ms", "unreachable", "retries", "wasted",
		"degraded_ms_after_heal", "leaked"),
}
