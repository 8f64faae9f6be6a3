package experiments

import (
	"fmt"

	"uqsim/internal/cluster"
	"uqsim/internal/control"
	"uqsim/internal/des"
	"uqsim/internal/fault"
	"uqsim/internal/job"
	"uqsim/internal/sim"
)

// mttrBin is the goodput binning granularity for MTTR measurement.
const mttrBin = 10 * des.Millisecond

// goodputBins counts successful completions per fixed virtual-time bin.
type goodputBins struct{ counts []int }

// trackGoodput hooks completion counting into a simulation.
func trackGoodput(s *sim.Sim) *goodputBins {
	gb := &goodputBins{}
	s.OnRequestDone = func(now des.Time, req *job.Request) {
		if req.Outcome != job.OutcomeOK {
			return
		}
		i := int(now / mttrBin)
		for len(gb.counts) <= i {
			gb.counts = append(gb.counts, 0)
		}
		gb.counts[i]++
	}
	return gb
}

// mttr is the recovery time after a fault at kill: the first bin from the
// kill onward whose forward 5-bin mean goodput reaches 90% of the offered
// load (which pre-fault goodput tracks, since the scenario runs below
// capacity). -1 means the run never recovered.
func (gb *goodputBins) mttr(kill des.Time, offeredQPS float64) des.Time {
	kb := int(kill / mttrBin)
	if kb > len(gb.counts) {
		return -1
	}
	threshold := 0.9 * offeredQPS * mttrBin.Seconds()
	for i := kb; i+goodputWindow <= len(gb.counts); i++ {
		if float64(gb.window(i))/goodputWindow >= threshold {
			return max(des.Time(i)*mttrBin-kill, 0)
		}
	}
	return -1
}

// goodputWindow is the bins a forward window spans: 50ms.
const goodputWindow = 5

// window sums the forward window of bins from bin b; bins past the last
// completion count 0.
func (gb *goodputBins) window(b int) int {
	sum := 0
	for _, c := range gb.counts[min(b, len(gb.counts)):min(b+goodputWindow, len(gb.counts))] {
		sum += c
	}
	return sum
}

// selfHealing demonstrates the control plane closing the detect→decide→act
// loop:
// (a) an unrecovered instance crash at 70% load — without control the
// survivor stays saturated for the rest of the run; with heartbeat
// detection + failover a replacement restores capacity within a bounded
// MTTR (detection lag + restart delay);
// (b) gray failure — a frequency-degraded instance keeps its full
// round-robin share and drags the p99 until outlier ejection removes it
// from rotation;
// (c) a 4× load step against a reactive autoscaler — replicas follow the
// load up where a fixed deployment collapses;
// (d) determinism — an identical rerun of (a) must reproduce the report
// and every control action exactly.
var selfHealing = Spec{
	Cells: func(o Opts) (cells []Cell) {
		w, d := o.window(300*des.Millisecond, 2*des.Second)
		// add appends one run: the scenario build makes, a control plane
		// attached when cfg is set, and goodput counted per bin. Read
		// reports the MTTR after kill (none when kill is 0), the plane's
		// actions, and the fingerprint the determinism row compares.
		add := func(part, scenario string, cfg *control.Config, kill des.Time, build func() (*sim.Sim, error)) {
			var plane *control.Plane
			var gb *goodputBins
			cells = append(cells, Cell{Label: []string{part, scenario}, Warmup: w, Window: d,
				Build: func() (*sim.Sim, error) {
					s, err := build()
					if err == nil && cfg != nil {
						if plane, err = control.Attach(s, *cfg); err == nil && cfg.Ejection != nil {
							s.OnCallResult = plane.ObserveCall
						}
					}
					if err != nil {
						return nil, err
					}
					gb = trackGoodput(s)
					return s, nil
				},
				Read: func(_ *sim.Sim, rep *sim.Report) any {
					mttr := des.Time(-1)
					if kill > 0 {
						mttr = gb.mttr(kill, 1600)
					}
					c := cols{"mttr_ms": "-", "actions": "-"}
					if mttr >= 0 {
						c["mttr_ms"] = f0(mttr.Millis())
					}
					if plane != nil {
						st := plane.Stats()
						c["actions"] = fmt.Sprintf("det=%d fo=%d ej=%d up=%d down=%d",
							st.Detections, st.Failovers, st.Ejections, st.ScaleUps, st.ScaleDowns)
						c["fingerprint"] = fmt.Sprintf("%.3f/%v/%v/%s",
							rep.GoodputQPS, rep.Latency.P99(), mttr, st.Fingerprint())
						plane.Stop()
					}
					return c
				}})
		}

		// (a) Instance crash without recovery: two machines, one instance
		// each (1 core ≈ 1000 QPS capacity), 1600 QPS offered. The kill
		// halves capacity; only failover brings it back. (d) reruns the
		// healed run.
		kill := w + des.Time(float64(d)*0.3)
		crash := func() (*sim.Sim, error) {
			s, err := oneService(o.Seed, 1600, cluster.FreqSpec{}, 2, 2, 1, 1)
			return faulted(s, err, nil, fault.Event{At: kill, Kind: fault.KillInstance, Service: "svc", Instance: 0})
		}
		failover := &control.Config{
			Detector: &control.DetectorConfig{Period: 5 * des.Millisecond},
			Failover: &control.FailoverConfig{RestartDelay: 20 * des.Millisecond},
		}
		add("a:instance-crash", "no-control", nil, kill, crash)
		add("a:instance-crash", "detect+failover", failover, kill, crash)

		// (b) Gray failure: two 2-core instances, one on a machine degraded
		// to its minimum frequency from the start. Round-robin keeps feeding
		// it half the traffic; ejection moves the traffic to the healthy one.
		gray := func() (*sim.Sim, error) {
			s, err := oneService(o.Seed, 1200, cluster.DefaultFreqSpec, 2, 2, 1, 2)
			return faulted(s, err, nil, fault.Event{
				At: 0, Kind: fault.DegradeFreq, Machine: "m1", FreqMHz: cluster.DefaultFreqSpec.MinMHz})
		}
		add("b:gray-failure", "no-control", nil, 0, gray)
		add("b:gray-failure", "outlier-ejection", &control.Config{Ejection: &control.EjectionConfig{
			Interval:  50 * des.Millisecond,
			Probation: des.Second,
		}}, 0, gray)

		// (c) Load step: one 1-core instance, 400→1600 QPS at 30% of the
		// window. Fixed deployment saturates; the autoscaler follows the step.
		step := func() (*sim.Sim, error) {
			s, err := oneService(o.Seed, 0, cluster.FreqSpec{}, 1, 4, 1, 1)
			if err != nil {
				return nil, err
			}
			cc := s.Client()
			cc.Pattern = stepPattern{before: 400, after: 1600, at: w + des.Time(float64(d)*0.3)}
			s.SetClient(cc)
			return s, nil
		}
		add("c:load-step", "fixed-1-replica", nil, 0, step)
		add("c:load-step", "autoscale-max-3", &control.Config{Autoscale: []control.AutoscaleConfig{{
			Service: "svc", Min: 1, Max: 3,
			TargetUtilization: 0.6,
			Interval:          50 * des.Millisecond,
		}}}, 0, step)

		// (d) Determinism: rerunning (a) with control must reproduce the
		// report and every control action bit for bit.
		add("d:determinism", "failover-rerun", failover, kill, crash)
		return cells
	},
	Reduce: func(_ Opts, rs []Result) (*Table, error) {
		t := table("Self-healing — failure detection, failover, ejection, autoscaling",
			"mttr: time to regain 90% of offered load; leaked must be 0",
			[]string{"part", "scenario", "goodput_qps", "p99_ms", "mttr_ms", "actions", "leaked"},
			rs[:len(rs)-1])
		healed, rerun := rs[1], rs[len(rs)-1]
		verdict := "stable"
		if healed.Value.(cols)["fingerprint"] != rerun.Value.(cols)["fingerprint"] {
			verdict = "DIVERGED"
		}
		t.Add(append(rerun.row(), "-", "-", "-", verdict, columns["leaked"](&rerun))...)
		return t, nil
	},
}

// stepPattern is a one-step open-loop rate: before until at, after then.
type stepPattern struct {
	before, after float64
	at            des.Time
}

// RateAt implements workload.Pattern.
func (p stepPattern) RateAt(t des.Time) float64 {
	if t < p.at {
		return p.before
	}
	return p.after
}
