package chaos

import (
	"fmt"
	"math"
	"strings"

	"uqsim/internal/config"
	"uqsim/internal/control"
	"uqsim/internal/des"
	"uqsim/internal/job"
	"uqsim/internal/sim"
	"uqsim/internal/stats"
	"uqsim/internal/validate"
)

// drainRounds bounds the drain invariant's patience: after the measured
// window the engine runs up to this many extra horizons, one at a time,
// re-checking emptiness after each. Metastable scenarios legitimately
// carry a retry backlog of many horizons' worth of work (a 0.4s partition
// can queue 70k+ jobs behind a 1k/s backend), so patience must scale far
// past the horizon — but each empty-queue round costs O(1), so the cap is
// generous. Whatever remains after all rounds is a real leak.
const drainRounds = 100

// minWindowSamples is the fewest recovery-window completions (in both the
// baseline and the faulted run) the recovery invariants need before they
// judge: below this the comparison is noise.
const minWindowSamples = 20

// Verify runs the scenario and checks every invariant, in severity order:
// conservation, drain, stuck breaker / region / ejection, recovery
// goodput and p99 against a no-fault baseline, and same-seed fingerprint
// determinism. It returns the first violation (nil if the scenario passes)
// plus the run's fingerprint, which a corpus replay must reproduce exactly.
func (h *Harness) Verify(sc Scenario) (*Violation, string, error) {
	faultsJSON, ff, err := h.Materialize(sc)
	if err != nil {
		return nil, "", err
	}
	return h.verifyFaults(sc.Seed, faultsJSON, ff)
}

// verifyFaults is Verify on an already-materialized fault plan — the shared
// path between generated scenarios and corpus replays.
func (h *Harness) verifyFaults(seed uint64, faultsJSON []byte, ff *config.FaultsFile) (*Violation, string, error) {
	winStart := h.recoveryWindowStart(ff)

	run, err := h.runOnce(seed, faultsJSON, winStart, h.opts.Fidelity, h.opts.SampleRate)
	if err != nil {
		return nil, "", err
	}
	fp := run.fingerprint

	// Conservation: no request may vanish from the ledger.
	if err := validate.Conservation(run.report); err != nil {
		return conservationViolation(err), fp, nil
	}
	// Drain: with the generator stopped and generous slack, every queue,
	// pool token, and in-flight call must empty.
	if err := run.drain(h); err != nil {
		if err == ErrInterrupted {
			return nil, "", err
		}
		return &Violation{ID: "drain", Detail: err.Error()}, fp, nil
	}
	// Stuck breaker: after the drain no probe can still be outstanding —
	// a half-open breaker holding its probe slot with zero live calls
	// will refuse traffic forever.
	for _, b := range run.sim.Breakers() {
		if b.Probing {
			return &Violation{
				ID:     "stuck-breaker",
				Detail: fmt.Sprintf("breaker %s stuck %v with its half-open probe slot held after full drain (%d trips)", b.Edge, b.State, b.Trips),
			}, fp, nil
		}
	}
	// Lost region: every region declared lost must be restored once its
	// machines recover.
	if run.plane != nil {
		if lost := run.plane.LostRegions(); len(lost) > 0 {
			return &Violation{
				ID:     "lost-region",
				Detail: fmt.Sprintf("regions still declared lost after all faults healed: %s", strings.Join(lost, ", ")),
			}, fp, nil
		}
	}
	// Stuck ejection: outlier detection must reinstate instances once
	// they behave again.
	for _, d := range run.sim.Deployments() {
		if n := d.EjectedCount(); n > 0 {
			return &Violation{
				ID:     "stuck-ejection",
				Detail: fmt.Sprintf("service %s still has %d instance(s) ejected after full drain", d.Name, n),
			}, fp, nil
		}
	}
	// Recovery: after the last fault heals, goodput and tail latency must
	// return to the no-fault baseline's neighbourhood.
	if winStart > 0 && run.window != nil {
		base, err := h.baseline(seed, winStart)
		if err != nil {
			return nil, "", err
		}
		if v := h.checkRecovery(run.window, base); v != nil {
			return v, fp, nil
		}
	}
	// Determinism: a same-seed rerun must reproduce the fingerprint
	// bit-for-bit. Anything that reads Go's randomised map order, the wall
	// clock or a shared global diverges here.
	rerun, err := h.runOnce(seed, faultsJSON, 0, h.opts.Fidelity, h.opts.SampleRate)
	if err != nil {
		return nil, "", err
	}
	if rerun.fingerprint != fp {
		return &Violation{
			ID:     "determinism",
			Detail: fmt.Sprintf("same-seed rerun fingerprint diverges:\n  first: %s\n  rerun: %s", fp, rerun.fingerprint),
		}, fp, nil
	}
	// Cross-fidelity: in hybrid mode, a sample-rate-1.0 hybrid run is
	// contractually inert — no extra random draws, no background
	// accounting — so its fingerprint must match full DES bit-for-bit
	// under this fault schedule too.
	if h.hybridMode() {
		full, err := h.runOnce(seed, faultsJSON, 0, "full", 0)
		if err != nil {
			return nil, "", err
		}
		inert, err := h.runOnce(seed, faultsJSON, 0, "hybrid", 1)
		if err != nil {
			return nil, "", err
		}
		if inert.fingerprint != full.fingerprint {
			return &Violation{
				ID:     "cross-fidelity",
				Detail: fmt.Sprintf("hybrid sample-rate-1.0 fingerprint diverges from full DES:\n  full:   %s\n  hybrid: %s", full.fingerprint, inert.fingerprint),
			}, fp, nil
		}
	}
	return nil, fp, nil
}

// hybridMode reports whether the search runs its scenarios at hybrid
// fidelity, which arms the cross-fidelity invariant.
func (h *Harness) hybridMode() bool { return strings.EqualFold(h.opts.Fidelity, "hybrid") }

// runResult is one completed simulation plus its measurements.
type runResult struct {
	sim         *sim.Sim
	plane       *control.Plane
	report      *sim.Report
	fingerprint string
	window      *windowStats
	horizon     des.Time
}

// drain runs the engine past the measured window, one horizon at a time
// for up to drainRounds horizons, until the simulation empties. The drain
// is bound to the harness's context like the run before it. The returned
// error is the last round's violation evidence, or ErrInterrupted when
// the context stopped the engine.
func (r *runResult) drain(h *Harness) error {
	defer r.sim.Bind(h.ctx)()
	var err error
	for i := des.Time(1); i <= drainRounds; i++ {
		r.sim.Engine().RunUntil(r.horizon * (1 + i))
		if r.sim.Engine().Stopped() {
			return ErrInterrupted
		}
		if err = r.sim.VerifyDrained(); err == nil {
			return nil
		}
	}
	return err
}

// runOnce loads and runs one simulation of the harness's directory with
// the materialized fault plan in place of its faults.json, under the given
// seed and fidelity, and — when winStart > 0 — a recovery-window
// measurement hook counting goodput and latencies of requests finishing
// at or after winStart. The run is bound to the harness's context.
func (h *Harness) runOnce(seed uint64, faultsJSON []byte, winStart des.Time, fidelity string, sampleRate float64) (*runResult, error) {
	dir := *h.dir
	dir.Faults = faultsJSON
	setup, err := dir.Load(config.Overrides{Seed: &seed, Fidelity: fidelity, SampleRate: sampleRate})
	if err != nil {
		return nil, err
	}
	res := &runResult{sim: setup.Sim, plane: setup.Plane, horizon: setup.Warmup + setup.Duration}
	if winStart > 0 {
		win := &windowStats{hist: stats.NewLatencyHist()}
		res.window = win
		horizon := res.horizon
		setup.Sim.OnRequestDone = func(now des.Time, req *job.Request) {
			// The window closes at the horizon: completions straggling in
			// during the post-run drain don't count (the baseline never
			// drains, so counting them would skew the comparison).
			if now >= winStart && now <= horizon && goodCompletion(req) {
				win.good++
				win.hist.Record(req.Latency())
			}
		}
	}
	defer setup.Sim.Bind(h.ctx)()
	rep, err := setup.Run()
	if err != nil {
		return nil, err
	}
	if setup.Sim.Engine().Stopped() {
		return nil, ErrInterrupted
	}
	res.report = rep
	res.fingerprint = validate.Fingerprint(rep)
	return res, nil
}

// baseline measures the recovery window of a no-fault run with the same
// seed. Shrink probes re-verify many sub-scenarios of one trial, so the
// (seed, window) pair memoizes across them.
func (h *Harness) baseline(seed uint64, winStart des.Time) (*windowStats, error) {
	key := [2]uint64{seed, uint64(winStart)}
	if ws, ok := h.baselines[key]; ok {
		return ws, nil
	}
	faultsJSON, err := encodeFaults(h.cleanFaults())
	if err != nil {
		return nil, err
	}
	run, err := h.runOnce(seed, faultsJSON, winStart, h.opts.Fidelity, h.opts.SampleRate)
	if err != nil {
		return nil, err
	}
	h.baselines[key] = run.window
	return run.window, nil
}

// checkRecovery compares the faulted run's recovery window against the
// baseline's: goodput must stay above GoodputFrac of baseline, and p99
// must stay under baseline·P99Factor + P99SlackMs.
func (h *Harness) checkRecovery(win, base *windowStats) *Violation {
	if base == nil || base.good < minWindowSamples {
		return nil // baseline too quiet to judge against
	}
	if float64(win.good) < h.opts.GoodputFrac*float64(base.good) {
		return &Violation{
			ID: "recovery-goodput",
			Detail: fmt.Sprintf("post-heal goodput %d is below %.0f%% of the no-fault baseline's %d",
				win.good, 100*h.opts.GoodputFrac, base.good),
		}
	}
	if win.good >= minWindowSamples {
		p99 := win.hist.P99()
		limit := des.Time(float64(base.hist.P99())*h.opts.P99Factor) + des.FromSeconds(h.opts.P99SlackMs/1000)
		if p99 > limit {
			return &Violation{
				ID: "recovery-p99",
				Detail: fmt.Sprintf("post-heal p99 %v exceeds %v (baseline %v × %.1f + %.0fms slack)",
					p99, limit, base.hist.P99(), h.opts.P99Factor, h.opts.P99SlackMs),
			}
		}
	}
	return nil
}

// recoveryWindowStart finds when the materialized schedule's last fault
// heals and places the measurement window 10% of a horizon after it.
// Zero means no recovery check: nothing to heal, something never heals,
// or the window would start too close to the end of the run to measure.
func (h *Harness) recoveryWindowStart(ff *config.FaultsFile) des.Time {
	lastHealS, ok := h.healAnalysis(ff)
	if !ok {
		return 0
	}
	winStartS := lastHealS + 0.1*h.horizonS
	if winStartS > 0.85*h.horizonS {
		return 0
	}
	return des.FromSeconds(winStartS)
}

// healAnalysis reports when a fault plan's last fault heals. ok is false
// when nothing heals or some fault never does (fault.Plan.Healing
// decides). Heal instants come from the spec's own seconds rather than
// the plan's nanoseconds, so window starts carry no rounding: a windowed
// fault heals at until_s, a recovery at at_s, and a domain recovery at a
// conservative at_s + n × stagger for its n machines.
func (h *Harness) healAnalysis(ff *config.FaultsFile) (lastHealS float64, ok bool) {
	plan, err := config.FaultPlan(ff)
	if err != nil {
		return 0, false
	}
	heals, ok := plan.Healing()
	for _, i := range heals {
		var s float64
		switch j := i - len(ff.Events); {
		case j < 0 && plan.Events[i].Kind.Windowed():
			s = ff.Events[i].UntilS
		case j < 0:
			ev := ff.Events[i]
			s = ev.AtS + ev.StaggerMs*float64(h.world.domainSize[ev.Domain])/1000
		case j < len(ff.Network.Partitions):
			s = ff.Network.Partitions[j].UntilS
		default:
			s = ff.Network.Links[j-len(ff.Network.Partitions)].UntilS
		}
		lastHealS = math.Max(lastHealS, s)
	}
	return lastHealS, ok
}
