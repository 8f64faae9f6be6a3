package analytic

import (
	"math"
	"math/rand"
	"testing"
)

// The implementations MMkAt, MMkWaitDist and ErlangC replaced, kept as the
// reference the current ones must match bit for bit: a full-length
// Erlang-B recurrence, and an MMkAt that ran it three times per point
// (PWait, MeanWaitS via MMkMeanWait, and the caller's MMkWaitDist).

func refErlangC(k int, a float64) float64 {
	if a <= 0 {
		return 0
	}
	if k <= 0 {
		return 1
	}
	if a >= float64(k) {
		return 1
	}
	b := 1.0
	for j := 1; j <= k; j++ {
		b = a * b / (float64(j) + a*b)
	}
	return float64(k) * b / (float64(k) - a*(1-b))
}

func refMMkMeanWait(lambda, mu float64, k int) float64 {
	if MMkSaturated(lambda, mu, k) {
		return SaturatedWait
	}
	a := lambda / mu
	return refErlangC(k, a) / (float64(k)*mu - lambda)
}

func refMMkWaitDist(lambda, mu float64, k int) (pWait, condRate float64) {
	if MMkSaturated(lambda, mu, k) {
		return 1, 0
	}
	return refErlangC(k, lambda/mu), float64(k)*mu - lambda
}

func refMMkAt(lambda, mu float64, k int) MMkPoint {
	p := MMkPoint{Saturated: MMkSaturated(lambda, mu, k)}
	if mu > 0 && k > 0 {
		p.Rho = lambda / (float64(k) * mu)
	} else if lambda > 0 {
		p.Rho = math.Inf(1)
	}
	if p.Saturated {
		p.PWait = 1
		p.MeanWaitS = SaturatedWait
		p.QueueLen = SaturatedWait
		return p
	}
	p.PWait = refErlangC(k, lambda/mu)
	p.MeanWaitS = refMMkMeanWait(lambda, mu, k)
	p.QueueLen = lambda * p.MeanWaitS
	return p
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSingleEvaluationMatchesReference: one Erlang-C evaluation per
// operating point, and a recurrence that stops once it has underflowed to
// zero, must not move a single bit of any field, from light load through
// the last representable rho below 1 and past saturation, for 1 to 20,000
// servers and for degenerate inputs.
func TestSingleEvaluationMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	type in struct {
		lambda, mu float64
		k          int
	}
	cases := []in{
		{0, 100, 4}, {-1, 100, 4}, {10, 0, 4}, {10, 100, 0}, {10, -3, 2}, {0, 0, 0},
		{400, 100, 4}, {math.Nextafter(400, 0), 100, 4}, {1e-300, 100, 20000},
	}
	rhos := []float64{0.05, 0.3, 0.6, 0.9, 0.99, 0.9999, 1, 1.0001, 1.5, 4}
	for i := 0; i < 400; i++ {
		k := 1 + r.Intn(20000)
		if i%4 == 0 {
			k = 1 + r.Intn(64)
		}
		mu := math.Exp(r.Float64()*12 - 4) // 0.018 to 2981 per second
		rho := rhos[r.Intn(len(rhos))]
		if i%3 == 0 {
			rho = 0.05 + r.Float64()*0.9499
		}
		cases = append(cases, in{rho * float64(k) * mu, mu, k})
	}
	underflowed := 0
	for _, c := range cases {
		got, want := MMkAt(c.lambda, c.mu, c.k), refMMkAt(c.lambda, c.mu, c.k)
		wantP, wantCond := refMMkWaitDist(c.lambda, c.mu, c.k)
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"Rho", got.Rho, want.Rho},
			{"PWait", got.PWait, want.PWait},
			{"MeanWaitS", got.MeanWaitS, want.MeanWaitS},
			{"QueueLen", got.QueueLen, want.QueueLen},
			{"CondRate", got.CondRate, wantCond},
			{"MMkWaitDist pWait", got.PWait, wantP},
			{"MMkMeanWait", MMkMeanWait(c.lambda, c.mu, c.k), want.MeanWaitS},
		} {
			if !sameBits(f.got, f.want) {
				t.Fatalf("%s at lambda=%v mu=%v k=%d: %v (%#x), reference %v (%#x)", f.name,
					c.lambda, c.mu, c.k, f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
			}
		}
		if got.Saturated != want.Saturated {
			t.Fatalf("Saturated at %+v: %v, reference %v", c, got.Saturated, want.Saturated)
		}
		gotP, gotCond := MMkWaitDist(c.lambda, c.mu, c.k)
		if !sameBits(gotP, wantP) || !sameBits(gotCond, wantCond) {
			t.Fatalf("MMkWaitDist at %+v: (%v, %v), reference (%v, %v)", c, gotP, gotCond, wantP, wantCond)
		}
		if !want.Saturated && want.PWait == 0 && c.lambda > 0 {
			underflowed++
		}
	}
	if underflowed == 0 {
		t.Fatal("no case underflowed the recurrence to zero; the early exit went untested")
	}
}
