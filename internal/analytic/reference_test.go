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

// plainErlangB is the Erlang-B recurrence ErlangC ran before its
// subnormal tail moved to integers: every step in floats, stopping once b
// is exactly 0.
func plainErlangB(k int, a float64) float64 {
	b := 1.0
	for j := 1; j <= k && b != 0; j++ {
		b = a * b / (float64(j) + a*b)
	}
	return b
}

// TestIntegerTailMatchesFloatLoop: ErlangC's integer tail must give the
// float recurrence's bits at every point, whether the recurrence ends
// normal, subnormal or zero: random (k, a) from light load to the edge of
// saturation, tiny loads, and the hybrid_1m benchmark cell's operating
// points (16,528 servers, offered load 9,000 to 15,000 Erlangs).
func TestIntegerTailMatchesFloatLoop(t *testing.T) {
	type point struct {
		k int
		a float64
	}
	var points []point
	for a := 9000.0; a <= 15000; a += 150 {
		points = append(points, point{16528, a}, point{16528, math.Nextafter(a, 0)})
	}
	r := rand.New(rand.NewSource(37))
	for i := 0; i < 3000; i++ {
		k := 1 + r.Intn(20000)
		u := r.Float64()
		switch i % 4 {
		case 1:
			u = u * u * u
		case 2:
			u = 1 - u*u*1e-3
		case 3:
			u = math.Exp(-30*u) / float64(k)
		}
		points = append(points, point{k, u * float64(k)})
	}
	var subnormal, zero int
	for _, p := range points {
		b := plainErlangB(p.k, p.a)
		switch {
		case b == 0:
			zero++
		case b < 0x1p-1022:
			subnormal++
		}
		if got, want := ErlangC(p.k, p.a), refErlangC(p.k, p.a); !sameBits(got, want) {
			t.Fatalf("ErlangC(%d, %v) = %v (%#x), float loop %v (%#x)", p.k, p.a,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	t.Logf("%d points: %d end subnormal, %d end at zero", len(points), subnormal, zero)
	if subnormal < 100 || zero < 100 {
		t.Fatalf("%d points end subnormal and %d at zero; the integer tail went undertested", subnormal, zero)
	}
}

// BenchmarkErlangCHybrid times one recurrence at the hybrid_1m cell's
// base operating point, about 2,700 of whose 16,528 steps are subnormal.
func BenchmarkErlangCHybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		erlangSink = ErlangC(16528, 9900)
	}
}

var erlangSink float64

// TestSubnormalStepMatchesFloatStep checks one integer step against the
// float step it stands for, on inputs chosen to land on ties: small j,
// loads on a grid of halves and quarters, and m up to the edge of the
// range (a·m just under 2^52). A wrong tie rule rarely moves ErlangC's
// answer, which is usually 0 by then; it always moves a step.
func TestSubnormalStepMatchesFloatStep(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	ties := 0
	for i := 0; i < 200000; i++ {
		j := uint64(1 + r.Intn(64))
		if i%2 == 0 {
			j = uint64(1 + r.Intn(20000))
		}
		a := r.Float64() * float64(j)
		if i%3 == 0 {
			a = float64(r.Intn(4*int(j))) / 4 // quarters: a·m lands on halves
		}
		if a == 0 || a >= float64(j) {
			continue
		}
		top := uint64(math.Min(0x1p52/a, 0x1p52)) // a·m and m under 2^52
		m := 1 + uint64(r.Int63n(int64(top)))
		if i%5 == 0 {
			m = uint64(r.Intn(1024)) + 1
		}
		b := math.Float64frombits(m)
		if b >= 0x1p-1022 || a*float64(m) >= 0x1p52 {
			continue
		}
		want := a * b / (float64(j) + a*b)
		if got := subnormalStep(a, m, j); got != math.Float64bits(want) {
			t.Fatalf("a=%v m=%d j=%d: step gives m=%d, float step %d", a, m, j, got, math.Float64bits(want))
		}
		if n := rneMul(a, m); 2*(n%j) == j || a*float64(m)-math.Floor(a*float64(m)) == 0.5 {
			ties++
		}
	}
	if ties < 1000 {
		t.Fatalf("only %d steps rounded a tie; the tie rules went undertested", ties)
	}
}
