package sim

import (
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"testing"

	"uqsim/internal/analytic"
	"uqsim/internal/hybrid"
	"uqsim/internal/rng"
)

// closedRateOf solves one closed fixed point from scratch.
func closedRateOf(n, thinkS float64, svcs []hybrid.Service) float64 {
	var work hybrid.Counters
	return newClosedRate(thinkS, svcs).at(n, &work)
}

// refClosedPopulationRate is the solver closedRate replaced, kept as the
// reference it must match bit for bit: a fresh es slice per call, live
// Servers() reads inside the loop, and always 64 damped steps.
func refClosedPopulationRate(n, thinkS float64, svcs []hybrid.Service) float64 {
	if n <= 0 {
		return 0
	}
	es := make([]float64, len(svcs))
	for i := range svcs {
		es[i] = svcs[i].MeanServiceS
		if svcs[i].Speed != nil {
			sp := svcs[i].Speed()
			if !(sp > 0) {
				return 0
			}
			es[i] = svcs[i].MeanServiceS / sp
		}
	}
	capacity := math.Inf(1)
	base := thinkS
	for i := range svcs {
		sv := &svcs[i]
		if sv.Visits <= 0 {
			continue
		}
		base += sv.Visits * es[i]
		k := sv.Servers()
		if k <= 0 {
			return 0
		}
		if c := float64(k) / es[i] / sv.Visits; c < capacity {
			capacity = c
		}
	}
	if base <= 0 {
		return 0
	}
	lam := n / base
	if !math.IsInf(capacity, 1) && lam > 0.999*capacity {
		lam = 0.999 * capacity
	}
	for i := 0; i < 64; i++ {
		r := thinkS
		saturated := false
		for j := range svcs {
			sv := &svcs[j]
			r += sv.Visits * es[j]
			if sv.Visits <= 0 {
				continue
			}
			w := analytic.MMkMeanWait(lam*sv.Visits, 1/es[j], sv.Servers())
			if analytic.IsSaturated(w) {
				saturated = true
				break
			}
			r += sv.Visits * w
		}
		if saturated {
			if math.IsInf(capacity, 1) {
				return 0
			}
			lam = 0.999 * capacity
			continue
		}
		next := n / r
		if !math.IsInf(capacity, 1) && next > 0.999*capacity {
			next = 0.999 * capacity
		}
		lam = 0.5*lam + 0.5*next
	}
	if math.IsNaN(lam) || math.IsInf(lam, 0) || lam < 0 {
		return 0
	}
	return lam
}

// randomChain draws a service chain and a population that puts its
// bottleneck at utilization rho.
func randomChain(r *rand.Rand, rho float64) (n, thinkS float64, svcs []hybrid.Service) {
	thinkS = []float64{0, 0.01, 1, 30}[r.Intn(4)]
	bottleneck, base := math.Inf(1), thinkS
	for i, nsvc := 0, 1+r.Intn(4); i < nsvc; i++ {
		k := 1 + r.Intn(64)
		if r.Intn(3) == 0 {
			k = 1 + r.Intn(20000)
		}
		sv := hybrid.Service{
			Visits:       []float64{0, 0.25, 1, 1, 1, 3}[r.Intn(6)],
			MeanServiceS: math.Exp(r.Float64()*9 - 9), // 0.12 ms to 1 s
			Servers:      func() int { return k },
		}
		speed := 1.0
		switch r.Intn(8) {
		case 0:
			speed = 0.25 + 0.75*r.Float64()
		case 1:
			if r.Intn(4) == 0 {
				speed = []float64{0, -1, math.NaN()}[r.Intn(3)] // frozen
			}
		case 2:
			if r.Intn(4) == 0 {
				k = 0 // total outage
			}
		}
		if r.Intn(4) > 0 {
			sv.Speed = func() float64 { return speed }
		} else {
			speed = 1
		}
		svcs = append(svcs, sv)
		if sv.Visits > 0 && speed > 0 {
			base += sv.Visits * sv.MeanServiceS / speed
			bottleneck = math.Min(bottleneck, float64(k)*speed/sv.MeanServiceS/sv.Visits)
		}
	}
	if math.IsInf(bottleneck, 1) || bottleneck == 0 {
		return 1000, thinkS, svcs
	}
	return math.Ceil(rho * bottleneck * base), thinkS, svcs
}

// TestClosedRateMatchesFixedLengthLoop: stopping at the bitwise fixed
// point, reading each service once per solve and reusing scratch must
// return what the 64-step loop did, bit for bit, on multi-service chains
// from idle to far past saturation, with huge and tiny tiers, zero-visit,
// zero-server, degraded and frozen services.
func TestClosedRateMatchesFixedLengthLoop(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	rhos := []float64{0.05, 0.5, 0.9, 0.99, 0.9999, 1, 1.05, 2, 50}
	var work hybrid.Counters
	zero := 0
	for i := 0; i < 1500; i++ {
		rho := rhos[r.Intn(len(rhos))]
		if i%2 == 0 {
			rho = 0.05 + 0.9499*r.Float64()
		}
		n, thinkS, svcs := randomChain(r, rho)
		if i%97 == 0 {
			n = float64(-r.Intn(2))
		}
		got := newClosedRate(thinkS, svcs).at(n, &work)
		want := refClosedPopulationRate(n, thinkS, svcs)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d (n=%v think=%v, %d services, rho %v): %v (%#x), fixed-length loop %v (%#x)",
				i, n, thinkS, len(svcs), rho, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if want == 0 {
			zero++
		}
	}
	if work.Solves == 0 || work.Iterations >= 64*work.Solves || work.Capped == 0 || zero == 0 {
		t.Fatalf("coverage: %+v, %d zero-rate cases; want early exits, capped solves and dead chains", work, zero)
	}
}

// TestClosedRateProperties: the closed fixed point is bounded by both the
// population limit n/(Z+E[S]) and the bottleneck capacity k/E[S],
// approaches each in its regime, returns 0 on degenerate input, and solves
// its own defining equation in the interior.
func TestClosedRateProperties(t *testing.T) {
	const es = 0.010 // 10 ms service, mu = 100
	one := func(k int) []hybrid.Service {
		return []hybrid.Service{{Name: "web", Visits: 1, MeanServiceS: es, Servers: func() int { return k }}}
	}
	for _, c := range []struct {
		n float64
		k int
	}{{0, 4}, {-5, 4}, {100, 0}, {100, -1}} {
		if got := closedRateOf(c.n, 1, one(c.k)); got != 0 {
			t.Errorf("closed rate of %v users on %d servers = %v, want 0", c.n, c.k, got)
		}
	}
	// Light population: rate ~ n/(Z+E[S]) (negligible queueing).
	got, want := closedRateOf(10, 1, one(16)), 10/(1+es)
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("light closed rate %v, want ~%v", got, want)
	}
	// Huge population: rate pinned just inside bottleneck capacity k/es.
	capacity := 4 / es
	if got := closedRateOf(1e6, 0.1, one(4)); got > capacity || got < 0.99*capacity {
		t.Errorf("saturated closed rate %v, want within [0.99, 1]·%v", got, capacity)
	}
	// Interior: the fixed point satisfies lambda·(Z + E[S] + Wq(lambda)) = n.
	n, think, k := 300.0, 1.0, 4
	lam := closedRateOf(n, think, one(k))
	w := analytic.MMkMeanWait(lam, 1/es, k)
	if analytic.IsSaturated(w) {
		t.Fatalf("interior fixed point saturated: lambda=%v", lam)
	}
	if resid := lam*(think+es+w) - n; math.Abs(resid) > 0.01*n {
		t.Errorf("fixed point residual %v at lambda=%v (n=%v)", resid, lam, n)
	}
}

// TestClosedRateMemoComparesExactInputs: the memo replays a solve only
// when the population and every service's server count and speed are
// unchanged. The multiplicative hash it replaced (sig·1000003 + servers)
// maps the two states below to the same key and replayed the first
// state's rate for the second.
func TestClosedRateMemoComparesExactInputs(t *testing.T) {
	ks := []int{1, 1000003 + 5}
	speed := 1.0
	svcs := []hybrid.Service{
		{Name: "a", Visits: 1, MeanServiceS: 0.010, Servers: func() int { return ks[0] }},
		{Name: "b", Visits: 1, MeanServiceS: 0.010, Servers: func() int { return ks[1] },
			Speed: func() float64 { return speed }},
	}
	var work hybrid.Counters
	cr := newClosedRate(0.1, svcs)
	first := cr.at(5000, &work)
	if again := cr.at(5000, &work); again != first || work.MemoHits != 1 || work.Solves != 1 {
		t.Fatalf("unchanged inputs must replay the memo: %v then %v, %+v", first, again, work)
	}
	ks[0], ks[1] = 2, 5 // 2·1000003 + 5 == 1·1000003 + (1000003+5)
	if got, want := cr.at(5000, &work), refClosedPopulationRate(5000, 0.1, svcs); got != want || got == first {
		t.Fatalf("after a capacity change: %v, want a fresh solve %v (stale %v)", got, want, first)
	}
	speed = 0.5
	if got, want := cr.at(5000, &work), refClosedPopulationRate(5000, 0.1, svcs); got != want {
		t.Fatalf("after a speed change: %v, want %v", got, want)
	}
	if got, want := cr.at(4000, &work), refClosedPopulationRate(4000, 0.1, svcs); got != want {
		t.Fatalf("after a population change: %v, want %v", got, want)
	}
	if work.MemoHits != 1 || work.Solves != 4 {
		t.Fatalf("three changed inputs must solve three more times: %+v", work)
	}
}

// TestBackgroundRunMatchesFloat64Draws: the integer run-length sampler
// decides every id as the per-id comparison it replaced, a rand.Rand
// Float64 draw on the same generator below rate, and leaves the generator
// at the same draw. Rates include the ends and both sides of 1; the draws
// right at the threshold are checked on the boundary itself.
func TestBackgroundRunMatchesFloat64Draws(t *testing.T) {
	rates := []float64{0, 1e-9, 0.004, 0.1, 0.25, 0.5, 1 - 0x1p-53, 1, 1.5}
	r := rand.New(rand.NewSource(3))
	for _, rate := range rates {
		got, want := rng.NewSplitter(9).PCG("hybrid", "sample"), rng.NewSplitter(9).PCG("hybrid", "sample")
		run, wantR := backgroundRun(got, rate), randv2.New(want)
		for k := 0; k < 20_000; k++ {
			n := 1 + r.Intn(3000)
			ref := 0
			for ref < n && wantR.Float64() >= rate {
				ref++
			}
			if g := run(n); g != ref {
				t.Fatalf("rate %v, call %d: run %d of %d, per-id comparison %d", rate, k, g, n, ref)
			}
		}
		if a, b := got.Uint64(), want.Uint64(); a != b {
			t.Fatalf("rate %v: generators parted: next draws %#x and %#x", rate, a, b)
		}
	}
	// At the boundary, which random draws never reach: the draw k/2^53 is
	// at or above rate from backgroundFrom(rate) on, and below it before.
	for _, rate := range []float64{0x1p-53, 0.004, 0.25, 1.0 / 3, 1 - 0x1p-53} {
		from := backgroundFrom(rate)
		for _, k := range []uint64{from - 1, from, from + 1} {
			if bg := float64(k)/(1<<53) >= rate; bg != (k >= from) {
				t.Fatalf("rate %v, k %d: float comparison %v, integer %v", rate, k, bg, k >= from)
			}
		}
	}
}
