package control

import (
	"math"

	"uqsim/internal/des"
)

// This file is the failure detector and failover orchestrator. Each
// managed instance emits heartbeats on a jittered period; a killed
// instance simply stops emitting. The detector keeps a running mean and
// variance of observed inter-arrival times (Welford) and converts the gap
// since the last beat into a phi-accrual suspicion score: phi(t) =
// −log10 P(interval > t) under a normal model of the observed intervals.
// Crossing the threshold declares the instance dead — with a lag of a few
// periods, which is the point: real detection is never instant. A
// configured failover then brings up a replacement replica on a machine
// with free cores after the restart delay, and the dead instance is
// retired for good.

// scheduleBeat arms the next heartbeat of tr, jittered from the
// instance's dedicated control stream.
func (p *Plane) scheduleBeat(tr *instanceTrack) {
	d := p.cfg.Detector.Period
	if j := p.cfg.Detector.Jitter; j > 0 {
		d = des.Time(float64(d) * (1 + j*(2*tr.hb.Float64()-1)))
	}
	p.after(d, tr.beat)
}

// onBeat is one heartbeat of tr: heard or not, the next one is armed.
func (p *Plane) onBeat(now des.Time, tr *instanceTrack) {
	if p.stopped || tr.replaced || tr.md.dep.Retired(tr.in) {
		return // emitter dies with its instance's tenure
	}
	// A beat is only heard when the instance is up AND its machine
	// can reach the plane's vantage: a partition silences a live
	// instance exactly like a crash does, which is the whole
	// ambiguity failure detection lives with.
	if !tr.in.Down() && p.beatVisible(tr) {
		p.recordBeat(now, tr)
	}
	p.scheduleBeat(tr)
}

// recordBeat folds one received heartbeat into the detector state. A beat
// from a declared-dead instance means the process came back (a fault-plan
// restart) before any replacement — the declaration is withdrawn.
func (p *Plane) recordBeat(now des.Time, tr *instanceTrack) {
	if tr.dead {
		tr.dead = false
		p.stats.Recoveries++
		if tr.suspectEject {
			// The instance was alive all along (partitioned, not
			// crashed): resumed beats put it straight back in rotation.
			tr.suspectEject = false
			tr.md.dep.Reinstate(tr.in)
		}
	}
	if iv := now - tr.lastBeat; iv > 0 {
		tr.beats++
		delta := float64(iv) - tr.meanInt
		tr.meanInt += delta / float64(tr.beats)
		tr.m2 += delta * (float64(iv) - tr.meanInt)
	}
	tr.lastBeat = now
}

// silenceZ is how unusual tr's current silence is: the gap since its last
// beat, in standard deviations above the mean of its observed heartbeat
// intervals. The standard deviation is floored at 10% of the mean so a
// nearly-perfect clock does not fire on the first late beat.
func (p *Plane) silenceZ(now des.Time, tr *instanceTrack) float64 {
	d := p.cfg.Detector
	mean := tr.meanInt
	if tr.beats < uint64(d.MinSamples) || mean <= 0 {
		mean = float64(d.Period)
	}
	std := 0.0
	if tr.beats > 1 {
		std = math.Sqrt(tr.m2 / float64(tr.beats))
	}
	if floor := 0.1 * mean; std < floor {
		std = floor
	}
	return (float64(now-tr.lastBeat) - mean) / std
}

// phi is the suspicion score of a silence z standard deviations long: the
// negative log10 of the probability that a healthy instance would stay
// silent this long, under a normal model of its heartbeat intervals.
func phi(z float64) float64 {
	tail := 0.5 * math.Erfc(z/math.Sqrt2)
	if tail <= 0 {
		return math.Inf(1)
	}
	return -math.Log10(tail)
}

// safeZ is a silence below which phi stays under threshold: the crossing
// bisected on phi itself, less a margin far wider than any rounding in
// Erfc and Log10. phi rises with z, so a check only needs the tail math
// for z at or above it; a clearly healthy instance costs one Sqrt.
func safeZ(threshold float64) float64 {
	lo, hi := -40.0, 40.0 // phi(-40) is 0, phi(40) is +Inf
	for i := 0; i < 100; i++ {
		if mid := (lo + hi) / 2; phi(mid) < threshold {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo - 1e-3
}

// checkSuspicions is the detector's periodic evaluation loop.
func (p *Plane) checkSuspicions(now des.Time) {
	if p.stopped {
		return
	}
	for _, md := range p.managed {
		for _, tr := range md.tracks {
			if tr.dead || tr.replaced || md.dep.Retired(tr.in) {
				continue
			}
			if z := p.silenceZ(now, tr); z >= p.zSafe && phi(z) >= p.cfg.Detector.PhiThreshold {
				p.declareDead(now, tr)
			}
		}
	}
	p.after(p.cfg.Detector.CheckInterval, p.suspicionTick)
}

// declareDead marks an instance failed and, when failover is configured,
// schedules its replacement.
func (p *Plane) declareDead(now des.Time, tr *instanceTrack) {
	tr.dead = true
	p.stats.Detections++
	if tr.in.Down() {
		p.stats.DetectionLagTotal += now - tr.in.DownSince()
	} else if tr.md.dep.Eject(tr.in) {
		// Alive but silent — from the vantage it is indistinguishable
		// from dead, so it leaves the rotation. Unlike a failover it is
		// not replaced (the Down() guard there holds the double-place
		// back); resumed beats reinstate it.
		tr.suspectEject = true
	}
	if p.cfg.Failover != nil {
		p.after(p.cfg.Failover.RestartDelay, func(t des.Time) { p.failover(t, tr) })
	}
}

// failover replaces a declared-dead instance with a fresh replica. If the
// instance recovered in the meantime the replacement is cancelled; if no
// machine currently has the cores free, the attempt repeats after another
// restart delay.
func (p *Plane) failover(now des.Time, tr *instanceTrack) {
	if p.stopped || tr.replaced || !tr.dead {
		return
	}
	if !tr.in.Down() {
		// Recovered before the replacement went up (recordBeat will also
		// withdraw the declaration at the next beat).
		return
	}
	dep := tr.md.dep
	machine, ok := p.placeReplica(p.cfg.Failover.Machines, tr.in.Alloc.Cores, "")
	if !ok {
		p.stats.FailoverStalls++
		p.after(p.cfg.Failover.RestartDelay, func(t des.Time) { p.failover(t, tr) })
		return
	}
	in, err := p.s.AddReplica(dep.Name, machine, tr.in.Alloc.Cores)
	if err != nil {
		// Raced with another allocation; try again next delay.
		p.stats.FailoverStalls++
		p.after(p.cfg.Failover.RestartDelay, func(t des.Time) { p.failover(t, tr) })
		return
	}
	tr.replaced = true
	dep.Retire(tr.in)
	// Reclaim the dead instance's cores: its machine can host future
	// replicas once it stops looking suspect.
	tr.in.Alloc.Machine.Release(tr.in.Alloc)
	p.stats.Failovers++
	p.registerInstance(tr.md, in)
}
