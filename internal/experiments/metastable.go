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
	"uqsim/internal/validate"
	"uqsim/internal/workload"
)

func init() {
	Registry["metastable"] = Metastable
}

// metastableScenario is a two-machine, two-tier chain: a cheap front tier
// on m0 calling a 1-core backend on m1 (exp 1ms service, ≈1000 QPS
// capacity) across the one machine boundary a partition can cut. The
// client gives up at 100ms — far beyond the healthy p99 (~23ms at 0.8×
// load), so timeouts are rare until something breaks — and re-issues
// timed-out requests up to clientRetries times while the abandoned work
// runs to completion. That re-issue is the feedback loop that lets a
// transient partition become a permanent overload.
func metastableScenario(seed uint64, qps float64, clientRetries int) (*sim.Sim, error) {
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
		Pattern:    workload.ConstantRate(qps),
		Timeout:    100 * des.Millisecond,
		MaxRetries: clientRetries,
	})
	return s, nil
}

// degradedAfter totals the time between from and end spent degraded: the
// sum of bins whose forward 50ms sliding-window goodput is below half the
// offered load. The 50% threshold sits far enough under the healthy mean
// that Poisson bin noise cannot trip it, so a healthy run reports ~0 and a
// pinned retry storm reports nearly the whole post-heal window. The second
// return is true when the final window is still degraded — the run ended
// before the system recovered.
func (gb *goodputBins) degradedAfter(from, end des.Time, offeredQPS float64) (des.Time, bool) {
	kb := int(from / mttrBin)
	nb := int(end / mttrBin)
	const fw = 5
	threshold := 0.5 * offeredQPS * mttrBin.Seconds() * fw
	at := func(i int) int {
		if i < len(gb.counts) {
			return gb.counts[i]
		}
		return 0
	}
	degraded, pinned := 0, false
	for b := kb; b+fw <= nb; b++ {
		sum := 0
		for i := b; i < b+fw; i++ {
			sum += at(i)
		}
		pinned = float64(sum) < threshold
		if pinned {
			degraded++
		}
	}
	return des.Time(degraded) * mttrBin, pinned
}

// Metastable reproduces a metastable failure: a 2-second-scale network
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
func Metastable(o Opts) (*Table, error) {
	t := NewTable("Metastable failure — retry storm outlives a healed partition",
		"scenario", "goodput_qps", "p99_ms", "unreachable", "retries", "wasted",
		"degraded_ms_after_heal", "leaked")
	t.Note = "2s partition at 0.8× load; degraded: total time after the heal with " +
		"smoothed goodput under 50% of offered load ('+' = still degraded when the " +
		"run ended); leaked must be 0"
	w, d := o.window(300*des.Millisecond, 5*des.Second)
	start := w + des.Time(float64(d)*0.2)
	heal := start + des.Time(float64(d)*0.4)
	const offered = 800.0

	type result struct {
		rep      *sim.Report
		unreach  uint64
		degraded des.Time
		pinned   bool
	}
	run := func(naive, partitioned bool) (*result, error) {
		clientRetries := 1
		if naive {
			clientRetries = 8
		}
		s, err := metastableScenario(o.Seed, offered, clientRetries)
		if err != nil {
			return nil, err
		}
		if naive {
			// Unbounded-in-spirit retries: a deep budget on the edge with
			// near-immediate re-offer, on top of the client's own storm.
			// The 40ms edge timeout is harmless while the queue is short
			// (p(sojourn > 40ms) ≈ 3e-4) and catastrophic once it is not.
			if err := s.SetServicePolicy("backend", fault.Policy{
				Timeout: 40 * des.Millisecond, MaxRetries: 6,
				BackoffBase: des.Millisecond, BackoffJitter: 0.5,
			}); err != nil {
				return nil, err
			}
		} else {
			if err := s.SetServicePolicy("backend", fault.Policy{
				Timeout: 40 * des.Millisecond, MaxRetries: 1,
				BackoffBase: 20 * des.Millisecond, BackoffJitter: 0.5,
				Breaker: &fault.BreakerSpec{
					ErrorThreshold: 0.5, Window: 20, Cooldown: 100 * des.Millisecond,
				},
			}); err != nil {
				return nil, err
			}
			if err := s.SetQueueDiscipline("backend", fault.QueueDiscipline{
				Kind: fault.QueueCoDelLIFO, Target: 5 * des.Millisecond,
			}); err != nil {
				return nil, err
			}
		}
		if partitioned {
			if err := s.InstallFaults(fault.Plan{Events: []fault.Event{{
				At: start, Kind: fault.PartitionStart, Until: heal,
				GroupA: []string{"m0"}, GroupB: []string{"m1"},
			}}}); err != nil {
				return nil, err
			}
		}
		gb := trackGoodput(s)
		rep, err := measure(s, w, d)
		if err != nil {
			return nil, err
		}
		var unreach uint64
		if n := s.Net(); n != nil {
			unreach = n.Unreachable()
		}
		deg, pinned := gb.degradedAfter(heal, w+d, offered)
		return &result{rep: rep, unreach: unreach, degraded: deg, pinned: pinned}, nil
	}

	addRow := func(label string, r *result) {
		deg := fmt.Sprintf("%.0f", r.degraded.Millis())
		if r.pinned {
			deg += "+"
		}
		t.Add(label,
			fmt.Sprintf("%.0f", r.rep.GoodputQPS),
			fmt.Sprintf("%.3f", r.rep.Latency.P99().Millis()),
			fmt.Sprintf("%d", r.unreach),
			fmt.Sprintf("%d", r.rep.Retries),
			fmt.Sprintf("%d", r.rep.WastedWork),
			deg,
			fmt.Sprintf("%d", validate.Leaked(r.rep)))
	}

	for _, c := range []struct {
		label              string
		naive, partitioned bool
	}{
		{"naive-no-fault", true, false},
		{"naive-retries", true, true},
		{"mitigated", false, true},
	} {
		r, err := run(c.naive, c.partitioned)
		if err != nil {
			return nil, err
		}
		addRow(c.label, r)
	}
	return t, nil
}
