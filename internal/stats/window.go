package stats

import (
	"math"
	"sort"

	"uqsim/internal/des"
)

// WindowedTail tracks latency observations within a sliding virtual-time
// window and answers quantile queries over only the recent window. The
// power manager uses it to measure "tail latency over the last decision
// interval" (Algorithm 1's stats input).
type WindowedTail struct {
	window  des.Time
	obs     []obsEntry // live observations are obs[head:], ordered by time
	head    int
	scratch []float64 // Quantile's sort buffer
	moved   int       // entries compaction has copied; tests bound it
}

type obsEntry struct {
	t des.Time
	v des.Time
}

// NewWindowedTail returns a tracker keeping observations from the last
// window of virtual time.
func NewWindowedTail(window des.Time) *WindowedTail {
	if window <= 0 {
		panic("stats: window must be positive")
	}
	return &WindowedTail{window: window}
}

// Record adds an observation at virtual time now.
func (w *WindowedTail) Record(now, v des.Time) {
	w.evict(now)
	w.obs = append(w.obs, obsEntry{t: now, v: v})
}

// evict drops the observations older than the window ending at now. The
// live suffix moves to the front only once the dead prefix is at least as
// long as it, so every entry is copied O(1) times amortised.
func (w *WindowedTail) evict(now des.Time) {
	cutoff := now - w.window
	for w.head < len(w.obs) && w.obs[w.head].t < cutoff {
		w.head++
	}
	if w.head > 0 && w.head*2 >= len(w.obs) {
		n := copy(w.obs, w.obs[w.head:])
		w.moved += n
		w.obs = w.obs[:n]
		w.head = 0
	}
}

// Quantile reports the q-quantile of observations within the window ending
// at now (nearest rank). Returns (0, false) when the
// window holds no observations.
func (w *WindowedTail) Quantile(now des.Time, q float64) (des.Time, bool) {
	w.evict(now)
	live := w.obs[w.head:]
	if len(live) == 0 {
		return 0, false
	}
	w.scratch = w.scratch[:0]
	for _, o := range live {
		w.scratch = append(w.scratch, float64(o.v))
	}
	sort.Float64s(w.scratch)
	return des.FromNanos(sortedQuantile(w.scratch, q)), true
}

// sortedQuantile is the nearest-rank q-quantile on samples already
// sorted ascending; s must not be empty.
func sortedQuantile(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}
