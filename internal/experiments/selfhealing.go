package experiments

import (
	"fmt"

	"uqsim/internal/cluster"
	"uqsim/internal/control"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/job"
	"uqsim/internal/service"
	"uqsim/internal/sim"
	"uqsim/internal/validate"
	"uqsim/internal/workload"
)

// selfHealScenario builds one service with exponential 1ms request cost,
// one instance per machine, driven open-loop at qps.
func selfHealScenario(seed uint64, qps float64, freq cluster.FreqSpec,
	nMachines, machineCores, instCores int) (*sim.Sim, error) {
	s := sim.New(sim.Options{Seed: seed})
	placements := make([]sim.Placement, 0, nMachines)
	for i := 0; i < nMachines; i++ {
		m := fmt.Sprintf("m%d", i)
		s.AddMachine(m, machineCores, freq)
		placements = append(placements, sim.Placement{Machine: m, Cores: instCores})
	}
	if _, err := s.Deploy(service.SingleStage("svc", dist.NewExponential(float64(des.Millisecond))),
		sim.RoundRobin, placements...); err != nil {
		return nil, err
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		return nil, err
	}
	s.SetClient(sim.ClientConfig{Pattern: workload.ConstantRate(qps)})
	return s, nil
}

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
	const fw = 5
	for i := kb; i+fw <= len(gb.counts); i++ {
		sum := 0
		for _, c := range gb.counts[i : i+fw] {
			sum += c
		}
		if float64(sum)/fw >= threshold {
			m := des.Time(i)*mttrBin - kill
			if m < 0 {
				m = 0
			}
			return m
		}
	}
	return -1
}

// fmtMTTR renders an MTTR value, "-" for never-recovered.
func fmtMTTR(m des.Time) string {
	if m < 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", m.Millis())
}

// actions flattens a control plane's action counters, "-" without a plane.
func actions(st *control.Stats) string {
	if st == nil {
		return "-"
	}
	return fmt.Sprintf("det=%d fo=%d ej=%d up=%d down=%d",
		st.Detections, st.Failovers, st.Ejections, st.ScaleUps, st.ScaleDowns)
}

// SelfHealing demonstrates the control plane closing the detect→decide→act
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
func SelfHealing(o Opts) (*Table, error) {
	t := NewTable("Self-healing — failure detection, failover, ejection, autoscaling",
		"part", "scenario", "goodput_qps", "p99_ms", "mttr_ms", "actions", "leaked")
	t.Note = "mttr: time to regain 90% of offered load; leaked must be 0"
	w, d := o.window(300*des.Millisecond, 2*des.Second)

	addRow := func(part, scenario string, rep *sim.Report, mttr des.Time, st *control.Stats) {
		t.Add(part, scenario,
			fmt.Sprintf("%.0f", rep.GoodputQPS),
			fmt.Sprintf("%.3f", rep.Latency.P99().Millis()),
			fmtMTTR(mttr),
			actions(st),
			fmt.Sprintf("%d", validate.Leaked(rep)))
	}

	// (a) Instance crash without recovery: two machines, one instance
	// each (1 core ≈ 1000 QPS capacity), 1600 QPS offered. The kill
	// halves capacity; only failover brings it back.
	kill := w + des.Time(float64(d)*0.3)
	detector := &control.DetectorConfig{Period: 5 * des.Millisecond}
	failover := &control.FailoverConfig{RestartDelay: 20 * des.Millisecond}
	runCrash := func(heal bool) (*sim.Report, des.Time, *control.Stats, error) {
		s, err := selfHealScenario(o.Seed, 1600, cluster.FreqSpec{}, 2, 2, 1)
		if err != nil {
			return nil, 0, nil, err
		}
		if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
			{At: kill, Kind: fault.KillInstance, Service: "svc", Instance: 0},
		}}); err != nil {
			return nil, 0, nil, err
		}
		var plane *control.Plane
		if heal {
			plane, err = control.Attach(s, control.Config{Detector: detector, Failover: failover})
			if err != nil {
				return nil, 0, nil, err
			}
		}
		gb := trackGoodput(s)
		rep, err := measure(s, w, d)
		if err != nil {
			return nil, 0, nil, err
		}
		var st *control.Stats
		if plane != nil {
			st = plane.Stats()
			plane.Stop()
		}
		return rep, gb.mttr(kill, 1600), st, nil
	}
	repBase, mttrBase, _, err := runCrash(false)
	if err != nil {
		return nil, err
	}
	addRow("a:instance-crash", "no-control", repBase, mttrBase, nil)
	repHeal, mttrHeal, stHeal, err := runCrash(true)
	if err != nil {
		return nil, err
	}
	addRow("a:instance-crash", "detect+failover", repHeal, mttrHeal, stHeal)

	// (b) Gray failure: two 2-core instances, one on a machine degraded
	// to its minimum frequency from the start. Round-robin keeps feeding
	// it half the traffic; ejection moves the traffic to the healthy one.
	runGray := func(eject bool) (*sim.Report, *control.Stats, error) {
		s, err := selfHealScenario(o.Seed, 1200, cluster.DefaultFreqSpec, 2, 2, 2)
		if err != nil {
			return nil, nil, err
		}
		if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
			{At: 0, Kind: fault.DegradeFreq, Machine: "m1", FreqMHz: cluster.DefaultFreqSpec.MinMHz},
		}}); err != nil {
			return nil, nil, err
		}
		var plane *control.Plane
		if eject {
			plane, err = control.Attach(s, control.Config{Ejection: &control.EjectionConfig{
				Interval:  50 * des.Millisecond,
				Probation: des.Second,
			}})
			if err != nil {
				return nil, nil, err
			}
			s.OnCallResult = plane.ObserveCall
		}
		rep, err := measure(s, w, d)
		if err != nil {
			return nil, nil, err
		}
		var st *control.Stats
		if plane != nil {
			st = plane.Stats()
			plane.Stop()
		}
		return rep, st, nil
	}
	repGray, _, err := runGray(false)
	if err != nil {
		return nil, err
	}
	addRow("b:gray-failure", "no-control", repGray, -1, nil)
	repEject, stEject, err := runGray(true)
	if err != nil {
		return nil, err
	}
	addRow("b:gray-failure", "outlier-ejection", repEject, -1, stEject)

	// (c) Load step: one 1-core instance, 400→1600 QPS at 30% of the
	// window. Fixed deployment saturates; the autoscaler follows the step.
	step := w + des.Time(float64(d)*0.3)
	runStep := func(scale bool) (*sim.Report, *control.Stats, error) {
		s, err := selfHealScenario(o.Seed, 0, cluster.FreqSpec{}, 1, 4, 1)
		if err != nil {
			return nil, nil, err
		}
		cc := s.Client()
		cc.Pattern = stepPattern{before: 400, after: 1600, at: step}
		s.SetClient(cc)
		var plane *control.Plane
		if scale {
			plane, err = control.Attach(s, control.Config{Autoscale: []control.AutoscaleConfig{{
				Service: "svc", Min: 1, Max: 3,
				TargetUtilization: 0.6,
				Interval:          50 * des.Millisecond,
			}}})
			if err != nil {
				return nil, nil, err
			}
		}
		rep, err := measure(s, w, d)
		if err != nil {
			return nil, nil, err
		}
		var st *control.Stats
		if plane != nil {
			st = plane.Stats()
			plane.Stop()
		}
		return rep, st, nil
	}
	repFixed, _, err := runStep(false)
	if err != nil {
		return nil, err
	}
	addRow("c:load-step", "fixed-1-replica", repFixed, -1, nil)
	repScale, stScale, err := runStep(true)
	if err != nil {
		return nil, err
	}
	addRow("c:load-step", "autoscale-max-3", repScale, -1, stScale)

	// (d) Determinism: rerunning (a) with control must reproduce the
	// report and every control action bit for bit.
	rep2, mttr2, st2, err := runCrash(true)
	if err != nil {
		return nil, err
	}
	fp := func(rep *sim.Report, m des.Time, st *control.Stats) string {
		return fmt.Sprintf("%.3f/%v/%v/%s", rep.GoodputQPS, rep.Latency.P99(), m, st.Fingerprint())
	}
	verdict := "stable"
	if fp(repHeal, mttrHeal, stHeal) != fp(rep2, mttr2, st2) {
		verdict = "DIVERGED"
	}
	t.Add("d:determinism", "failover-rerun", "-", "-", "-", verdict,
		fmt.Sprintf("%d", validate.Leaked(rep2)))
	return t, nil
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
