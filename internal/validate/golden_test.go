package validate_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"uqsim/internal/apps"
	"uqsim/internal/cluster"
	"uqsim/internal/config"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/graph"
	"uqsim/internal/hybrid"
	"uqsim/internal/service"
	"uqsim/internal/sim"
	"uqsim/internal/validate"
	"uqsim/internal/workload"
)

// golden is one pinned run: the fingerprint's SHA-256 prefix and the number
// of des events the run fired. Both were recorded at the commit before the
// request path started recycling its objects (PR 12), so any change to the
// number or order of events, an RNG draw or an ID shows up here.
type golden struct {
	name   string
	run    func() (*sim.Sim, *sim.Report, error)
	fp     string
	events uint64
}

func appsRun(mk func() (*sim.Sim, error), warmup, duration des.Time) func() (*sim.Sim, *sim.Report, error) {
	return func() (*sim.Sim, *sim.Report, error) {
		s, err := mk()
		if err != nil {
			return nil, nil, err
		}
		rep, err := s.Run(warmup, duration)
		return s, rep, err
	}
}

func dirRun(dir string) func() (*sim.Sim, *sim.Report, error) {
	return func() (*sim.Sim, *sim.Report, error) {
		setup, err := config.LoadDir(dir)
		if err != nil {
			return nil, nil, err
		}
		rep, err := setup.Run()
		return setup.Sim, rep, err
	}
}

// hybridSessions is a small sibling of the benchmark's hybrid_1m cell:
// session users at sampled fidelity with a flash crowd.
func hybridSessions() (*sim.Sim, error) {
	const users, cores = 40000, 4 * (40000 / 242)
	s := sim.New(sim.Options{Seed: 5})
	s.AddMachine("m0", cores, cluster.DefaultFreqSpec)
	if _, err := s.Deploy(service.SingleStage("front", dist.NewExponential(float64(10*des.Millisecond))),
		sim.RoundRobin, sim.Placement{Machine: "m0", Cores: cores}); err != nil {
		return nil, err
	}
	if err := s.SetTopology(graph.Linear("main", "front")); err != nil {
		return nil, err
	}
	think := dist.NewExponential(float64(des.Second))
	s.SetClient(sim.ClientConfig{Sessions: &workload.SessionConfig{
		Users: users,
		Journeys: []workload.Journey{{Name: "browse", Weight: 1, Steps: []workload.SessionStep{
			{Tree: 0, Think: think},
			{Tree: 0, Think: think},
		}}},
		Crowds: []workload.FlashCrowd{{
			At: des.Second, Extra: users / 2,
			RampUp: 500 * des.Millisecond, Hold: 500 * des.Millisecond, RampDown: 500 * des.Millisecond,
		}},
	}})
	s.SetHybrid(hybrid.Config{SampleRate: 0.05})
	return s, nil
}

var goldens = []golden{
	{
		name: "twotier",
		run: appsRun(func() (*sim.Sim, error) {
			return apps.TwoTier(apps.TwoTierConfig{Seed: 11, QPS: 40000, Network: true})
		}, 50*des.Millisecond, 350*des.Millisecond),
		fp: "2df7752ed49ecae4", events: 351900,
	},
	{
		name: "fanout",
		run: appsRun(func() (*sim.Sim, error) {
			return apps.TailAtScale(apps.TailAtScaleConfig{Seed: 11, QPS: 50, Servers: 600, SlowFraction: 0.01})
		}, 0, 2*des.Second),
		fp: "5eddaf5ee3480e82", events: 110689,
	},
	// Both config directories set a client timeout and no overload control.
	// Until PR 16 nothing cancelled that timer when its request completed:
	// it fired later as a no-op (onTimeout returns at once for a finished
	// request), counted by Processed and by nothing else. Now a request's
	// timers are disarmed as it terminates, so the count drops by the dead
	// timers that used to fire inside the horizon, 1,362 of the 1,780
	// disarmed here and 2,575 of 2,643 on metastable (old pins 11483 and
	// 15798, sums checked with a counter in disarm); the fingerprints are
	// the old ones.
	{name: "threeregion", run: dirRun("../../configs/threeregion"), fp: "7b3be4a67b448088", events: 10121},
	{name: "metastable", run: dirRun("../../configs/metastable"), fp: "e36be1304fca77ed", events: 13223},
	{
		name: "hybrid-sessions",
		run:  appsRun(hybridSessions, 500*des.Millisecond, 2500*des.Millisecond),
		fp:   "96d77dcc2916744f", events: 21899,
	},
}

// TestGoldenFingerprints replays the pinned cells: the two-tier and fan-out
// applications, the three-region config with its fault plan and control
// plane, the metastable config with retries on every edge, and a hybrid
// sessions cell.
func TestGoldenFingerprints(t *testing.T) {
	for _, g := range goldens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			s, rep, err := g.run()
			if err != nil {
				t.Fatal(err)
			}
			if err := validate.Conservation(rep); err != nil {
				t.Fatal(err)
			}
			fp := validate.Fingerprint(rep)
			sum := fmt.Sprintf("%x", sha256.Sum256([]byte(fp)))[:16]
			events := s.Engine().Processed()
			if sum != g.fp || events != g.events {
				t.Fatalf("fingerprint %s events %d, pinned %s / %d\n%.400s",
					sum, events, g.fp, g.events, fp)
			}
		})
	}
}
