package control

import (
	"cmp"
	"slices"

	"uqsim/internal/des"
)

// This file is the outlier ejector — the defense against gray failure,
// where an instance is up (it answers heartbeats) but degraded (slow
// cores, creeping error rate) and a health-oblivious balancer keeps
// feeding it a full traffic share. Per instance the plane windows call
// outcomes from the data plane (sim.OnCallResult → Plane.ObserveCall):
// success/failure counts plus a streaming P² latency quantile. Every
// interval, instances breaching the failure-ratio rule or whose latency
// quantile exceeds LatencyFactor × the deployment's median quantile are
// ejected from load balancing, worst first, bounded so the healthy set
// never shrinks below the min-healthy fraction. Ejection is reversible:
// after probation the instance is reinstated with a clean window, and a
// still-degraded instance is simply re-ejected one window later.

// outlier is one ejection candidate with its badness score.
type outlier struct {
	tr    *instanceTrack
	score float64
	order int // deployment index, for deterministic ties
}

// evaluateEjections is one deployment's periodic ejection decision.
func (p *Plane) evaluateEjections(now des.Time, md *managedDeployment) {
	if p.stopped {
		return
	}
	e := p.cfg.Ejection

	// Candidates: instances currently in the rotation with enough
	// windowed observations to judge. The slices are the deployment's
	// scratch, reused every window.
	cands, quantiles, outliers := md.cands[:0], md.quantiles[:0], md.outliers[:0]
	for _, tr := range md.tracks {
		if tr.replaced || tr.dead || tr.in.Down() || md.dep.Retired(tr.in) {
			continue
		}
		if !inRotation(md, tr) {
			continue
		}
		cands = append(cands, tr)
		if tr.lat.Count() >= uint64(e.MinRequests) {
			quantiles = append(quantiles, tr.lat.Value())
		}
	}
	med := lowerMedian(quantiles)

	for i, tr := range cands {
		total := tr.succ + tr.fail
		if total >= uint64(e.MinRequests) {
			if ratio := float64(tr.fail) / float64(total); ratio >= e.FailureRatio {
				outliers = append(outliers, outlier{tr: tr, score: 1 + ratio, order: i})
				continue
			}
		}
		if med > 0 && tr.lat.Count() >= uint64(e.MinRequests) {
			if q := tr.lat.Value(); q > e.LatencyFactor*med {
				outliers = append(outliers, outlier{tr: tr, score: q / med, order: i})
			}
		}
	}
	// Worst first; deployment order breaks score ties deterministically.
	slices.SortFunc(outliers, func(a, b outlier) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.order, b.order)
	})
	md.cands, md.quantiles, md.outliers = cands, quantiles, outliers

	// Bounded eviction: never shrink the rotation below the min-healthy
	// floor of the current replica count.
	floor := ceilFrac(e.MinHealthyFraction, md.dep.ReplicaCount())
	for _, o := range outliers {
		if len(md.dep.Healthy())-1 < floor {
			break
		}
		if md.dep.Eject(o.tr.in) {
			p.stats.Ejections++
			tr := o.tr
			p.after(e.Probation, func(t des.Time) { p.reinstate(t, tr) })
		}
	}

	// Fresh windows for the next interval.
	for _, tr := range md.tracks {
		tr.succ, tr.fail = 0, 0
		if tr.lat != nil && tr.lat.Count() > 0 {
			tr.lat.Reset()
		}
	}
	p.after(e.Interval, md.ejectTick)
}

// reinstate ends an instance's probation: back into the rotation with a
// clean slate (unless it died or was replaced in the meantime).
func (p *Plane) reinstate(now des.Time, tr *instanceTrack) {
	if p.stopped || tr.replaced {
		return
	}
	if tr.md.dep.Reinstate(tr.in) {
		p.stats.Reinstatements++
		tr.succ, tr.fail = 0, 0
		if tr.lat != nil {
			tr.lat.Reset()
		}
	}
}

// inRotation reports whether the instance is currently in the healthy set.
func inRotation(md *managedDeployment, tr *instanceTrack) bool {
	for _, in := range md.dep.Healthy() {
		if in == tr.in {
			return true
		}
	}
	return false
}

// lowerMedian is the lower median of vs (0 when empty), sorting vs in
// place: with two instances, one degraded, the lower median is the healthy
// one's quantile, so the degraded instance still stands out — an upper or
// mean median would let one bad instance drag the baseline toward itself.
func lowerMedian(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	return vs[(len(vs)-1)/2]
}
