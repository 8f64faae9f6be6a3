package stats

import (
	"testing"

	"uqsim/internal/des"
	"uqsim/internal/rng"
)

// slideTail is the tracker WindowedTail replaced: it moves the live window
// to the front of its slice on every eviction and sorts a fresh copy per
// query. It is the reference the head-indexed tracker must match.
type slideTail struct {
	window des.Time
	obs    []obsEntry
}

func (w *slideTail) evict(now des.Time) {
	cutoff := now - w.window
	i := 0
	for i < len(w.obs) && w.obs[i].t < cutoff {
		i++
	}
	if i > 0 {
		w.obs = append(w.obs[:0], w.obs[i:]...)
	}
}

func (w *slideTail) Record(now, v des.Time) {
	w.evict(now)
	w.obs = append(w.obs, obsEntry{t: now, v: v})
}

func (w *slideTail) Quantile(now des.Time, q float64) (des.Time, bool) {
	w.evict(now)
	if len(w.obs) == 0 {
		return 0, false
	}
	vals := make([]float64, len(w.obs))
	for i, o := range w.obs {
		vals[i] = float64(o.v)
	}
	return des.FromNanos(Percentile(vals, q)), true
}

// TestWindowedTailMatchesSlide drives the tracker and the slide-to-front
// reference with the same random interleavings of records, time gaps and
// queries; every answer must be equal bit for bit.
func TestWindowedTailMatchesSlide(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		window := des.Time(1+r.IntN(50)) * des.Millisecond
		w, ref := NewWindowedTail(window), &slideTail{window: window}
		now := des.Time(0)
		for step := 0; step < 20000; step++ {
			switch k := r.IntN(100); {
			case k < 2: // a quiet spell that may empty the window
				now += des.FromNanos(r.Float64() * 2 * float64(window))
			case k < 90:
				now += des.FromNanos(r.ExpFloat64() * 2e4)
				v := des.FromNanos(r.ExpFloat64() * 1e6)
				if r.IntN(10) == 0 {
					v = des.Time(r.IntN(4)) * des.Microsecond // ties
				}
				w.Record(now, v)
				ref.Record(now, v)
			default:
				q := []float64{0, 0.5, 0.95, 0.99, 0.999, 1, r.Float64()}[r.IntN(7)]
				got, gok := w.Quantile(now, q)
				want, wok := ref.Quantile(now, q)
				if got != want || gok != wok {
					t.Fatalf("seed %d step %d: Quantile(%v, %v) = %v,%v; reference %v,%v",
						seed, step, now, q, got, gok, want, wok)
				}
			}
		}
	}
}

// TestWindowedTailMovesLinear: N records into a window that holds many
// of them copy O(N) entries in total. Sliding the live window to the
// front on every eviction copies O(N × window) instead.
func TestWindowedTailMovesLinear(t *testing.T) {
	const n = 200000
	w := NewWindowedTail(des.Second)
	for i := 0; i < n; i++ {
		now := des.Time(i) * 40 * des.Microsecond // 25k records/s
		w.Record(now, des.Time(i%1000)*des.Microsecond)
		if i%5000 == 4999 {
			w.Quantile(now, 0.99)
		}
	}
	if w.moved > n {
		t.Fatalf("%d records moved %d entries, want at most %d", n, w.moved, n)
	}
}
