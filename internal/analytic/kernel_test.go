package analytic

import (
	"math"
	"math/rand"
	"testing"
)

// samePoint reports whether two points agree field for field, bit for bit
// (so a NaN matches the same NaN).
func samePoint(a, b MMkPoint) bool {
	return sameBits(a.Rho, b.Rho) && sameBits(a.PWait, b.PWait) && sameBits(a.CondRate, b.CondRate) &&
		sameBits(a.MeanWaitS, b.MeanWaitS) && sameBits(a.QueueLen, b.QueueLen) && a.Saturated == b.Saturated
}

// runsRecurrence reports whether a point at (λ, µ, k) needs the O(k)
// Erlang-C recurrence: it is not saturated, and its offered load a = λ/µ
// is none of ErlangC's closed-form edges.
func runsRecurrence(lambda, mu float64, k int) bool {
	a := lambda / mu
	return !MMkSaturated(lambda, mu, k) && !(a <= 0) && !(a >= float64(k))
}

type mmkKey struct {
	k int
	a uint64
}

// TestKernelMatchesMemoLess: a run's worth of operating points, repeating
// and interleaved across services, with neighbours one ulp apart, services
// that share k but not µ, and saturated, zero, negative and NaN λ and
// k <= 0 mixed in. The kernel must answer every point exactly as the
// memo-less MMkAt does, and run the recurrence once per distinct key.
func TestKernelMatchesMemoLess(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	type svc struct {
		mu      float64
		k       int
		lambdas []float64
	}
	svcs := []svc{{mu: 100, k: 16}, {mu: 250, k: 16}, {mu: 0.5, k: 16528}, {mu: 37, k: 3}, {mu: 1e3, k: 400}}
	for i := range svcs {
		s := &svcs[i]
		for j := 0; j < 8; j++ {
			l := (0.05 + 0.9*r.Float64()) * float64(s.k) * s.mu
			s.lambdas = append(s.lambdas, l, math.Nextafter(l, math.Inf(1)))
		}
		s.lambdas = append(s.lambdas, 0, -1, math.NaN(), 1.5*float64(s.k)*s.mu, float64(s.k)*s.mu)
	}
	var m MMk
	keys := make(map[mmkKey]bool)
	calls := 0
	for i := 0; i < 3000; i++ {
		s := svcs[r.Intn(len(svcs))]
		lambda, k := s.lambdas[r.Intn(len(s.lambdas))], s.k
		if i%97 == 0 {
			k = -r.Intn(2) // 0 or -1 servers
		}
		got, want := m.At(lambda, s.mu, k), MMkAt(lambda, s.mu, k)
		if !samePoint(got, want) {
			t.Fatalf("At(%v, %v, %d) = %+v, memo-less %+v", lambda, s.mu, k, got, want)
		}
		if runsRecurrence(lambda, s.mu, k) {
			calls++
			keys[mmkKey{k, math.Float64bits(lambda / s.mu)}] = true
		}
	}
	if m.Recurrences != len(keys) {
		t.Fatalf("%d recurrences for %d distinct keys", m.Recurrences, len(keys))
	}
	if calls < 10*len(keys) {
		t.Fatalf("%d recurring calls over %d keys: too few repeats to test the memo", calls, len(keys))
	}
	if got := (*MMk)(nil).At(svcs[0].lambdas[0], svcs[0].mu, svcs[0].k); !samePoint(got, MMkAt(svcs[0].lambdas[0], svcs[0].mu, svcs[0].k)) {
		t.Fatalf("nil kernel At differs from MMkAt: %+v", got)
	}
}

// TestKernelEvictionRecomputes: far more distinct keys than the table
// holds, each asked for twice. Evicted keys are recomputed, never
// answered wrongly.
func TestKernelEvictionRecomputes(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	const n = 4 << mmkBits
	type in struct {
		lambda, mu float64
		k          int
	}
	var pts []in
	for i := 0; i < n; i++ {
		k := 1 + r.Intn(64)
		mu := 1 + r.Float64()
		pts = append(pts, in{(0.05 + 0.9*r.Float64()) * float64(k) * mu, mu, k})
	}
	order := append(r.Perm(n), r.Perm(n)...)
	var m MMk
	for _, i := range order {
		p := pts[i]
		if got, want := m.At(p.lambda, p.mu, p.k), MMkAt(p.lambda, p.mu, p.k); !samePoint(got, want) {
			t.Fatalf("At(%v, %v, %d) = %+v, memo-less %+v", p.lambda, p.mu, p.k, got, want)
		}
	}
	if m.Recurrences < n || m.Recurrences >= 2*n {
		t.Fatalf("%d recurrences for %d keys asked twice: want at least one per key, and some hits", m.Recurrences, n)
	}
}
