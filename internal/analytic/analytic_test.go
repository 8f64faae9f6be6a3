package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool {
	if b == 0 {
		return math.Abs(a) < tol
	}
	return math.Abs(a-b)/math.Abs(b) < tol
}

func TestMM1(t *testing.T) {
	// λ=7000, µ=10000 → mean sojourn 1/3000 s.
	if got := MM1MeanSojourn(7000, 10000); !close(got, 1.0/3000, 1e-12) {
		t.Fatalf("mean sojourn %v", got)
	}
	if !math.IsInf(MM1MeanSojourn(10000, 10000), 1) {
		t.Fatal("saturated M/M/1 should be infinite")
	}
	// p50 of exponential = ln2 · mean.
	if got := MM1SojournQuantile(7000, 10000, 0.5); !close(got, math.Ln2/3000, 1e-12) {
		t.Fatalf("median %v", got)
	}
	if MM1SojournQuantile(1, 2, 0) != 0 {
		t.Fatal("q=0")
	}
	if !math.IsInf(MM1SojournQuantile(1, 2, 1), 1) {
		t.Fatal("q=1")
	}
}

func TestErlangCKnownValues(t *testing.T) {
	// k=1: C = a (probability of waiting = utilization).
	if got := ErlangC(1, 0.5); !close(got, 0.5, 1e-12) {
		t.Fatalf("C(1,0.5) = %v", got)
	}
	// Saturated or invalid inputs.
	if ErlangC(0, 0.5) != 1 || ErlangC(2, 2) != 1 {
		t.Fatal("degenerate ErlangC")
	}
	// k=2, a=1 (ρ=0.5): C = 1/3 (standard textbook value).
	if got := ErlangC(2, 1); !close(got, 1.0/3, 1e-9) {
		t.Fatalf("C(2,1) = %v", got)
	}
}

func TestMMkReducesToMM1(t *testing.T) {
	lambda, mu := 700.0, 1000.0
	if got, want := MMkMeanSojourn(lambda, mu, 1), MM1MeanSojourn(lambda, mu); !close(got, want, 1e-9) {
		t.Fatalf("M/M/1 via M/M/k: %v vs %v", got, want)
	}
	if !math.IsInf(MMkMeanWait(2000, 1000, 2), 1) {
		t.Fatal("saturated M/M/k")
	}
	if !math.IsInf(MMkMeanSojourn(2000, 1000, 2), 1) {
		t.Fatal("saturated M/M/k sojourn")
	}
}

func TestMMkPoolingBeatsPartition(t *testing.T) {
	// A pooled M/M/2 beats two separate M/M/1 at the same per-server load.
	pooled := MMkMeanSojourn(1400, 1000, 2)
	split := MM1MeanSojourn(700, 1000)
	if pooled >= split {
		t.Fatalf("pooling should win: %v vs %v", pooled, split)
	}
}

func TestMD1HalfOfMM1Wait(t *testing.T) {
	// M/D/1 waiting time is half the M/M/1 waiting time at equal ρ.
	lambda, mu := 700.0, 1000.0
	d := 1 / mu
	mm1Wait := MM1MeanSojourn(lambda, mu) - 1/mu
	md1Wait := MD1MeanWait(lambda, d)
	if !close(md1Wait, mm1Wait/2, 1e-9) {
		t.Fatalf("M/D/1 wait %v, want %v", md1Wait, mm1Wait/2)
	}
	if !math.IsInf(MD1MeanWait(1000, 1.0/1000), 1) {
		t.Fatal("saturated M/D/1")
	}
	if got := MD1MeanSojourn(lambda, d); !close(got, md1Wait+d, 1e-12) {
		t.Fatalf("M/D/1 sojourn %v", got)
	}
	if !math.IsInf(MD1MeanSojourn(2000, 1.0/1000), 1) {
		t.Fatal("saturated M/D/1 sojourn")
	}
}

func TestMG1MatchesMM1AndMD1(t *testing.T) {
	lambda, mu := 700.0, 1000.0
	es := 1 / mu
	// Exponential service: E[S²] = 2/µ².
	if got, want := MG1MeanWait(lambda, es, 2/(mu*mu)), MM1MeanSojourn(lambda, mu)-es; !close(got, want, 1e-9) {
		t.Fatalf("P-K exp %v vs %v", got, want)
	}
	// Deterministic service: E[S²] = 1/µ².
	if got, want := MG1MeanWait(lambda, es, es*es), MD1MeanWait(lambda, es); !close(got, want, 1e-9) {
		t.Fatalf("P-K det %v vs %v", got, want)
	}
	if !math.IsInf(MG1MeanWait(1000, 1.0/1000, 1), 1) {
		t.Fatal("saturated M/G/1")
	}
}

func TestMaxOfExponentials(t *testing.T) {
	// n=1: mean and quantile reduce to the exponential itself.
	if got := MaxOfExponentialsMean(1, 2.5); !close(got, 2.5, 1e-12) {
		t.Fatalf("H(1) mean %v", got)
	}
	// n=3: H(3) = 1 + 1/2 + 1/3.
	if got := MaxOfExponentialsMean(3, 1); !close(got, 11.0/6, 1e-12) {
		t.Fatalf("H(3) %v", got)
	}
	if got := MaxOfExponentialsQuantile(1, 1, 1-math.Exp(-1)); !close(got, 1, 1e-9) {
		t.Fatalf("quantile n=1 %v", got)
	}
	if MaxOfExponentialsQuantile(0, 1, 0.5) != 0 {
		t.Fatal("n=0 quantile")
	}
	if !math.IsInf(MaxOfExponentialsQuantile(2, 1, 1), 1) {
		t.Fatal("q=1 quantile")
	}
	// Monotone in n.
	prev := 0.0
	for n := 1; n <= 64; n *= 2 {
		q := MaxOfExponentialsQuantile(n, 1, 0.99)
		if q <= prev {
			t.Fatalf("quantile not increasing in n at %d", n)
		}
		prev = q
	}
}

func TestTailAtScaleSlowProb(t *testing.T) {
	// Dean & Barroso: 1% slow servers, fanout 100 → 63% of requests slow.
	if got := TailAtScaleSlowProb(0.01, 100); !close(got, 1-math.Pow(0.99, 100), 1e-12) {
		t.Fatalf("slow prob %v", got)
	}
	if TailAtScaleSlowProb(0, 100) != 0 || TailAtScaleSlowProb(0.5, 0) != 0 {
		t.Fatal("degenerate")
	}
	if TailAtScaleSlowProb(1, 5) != 1 {
		t.Fatal("all slow")
	}
	if got := TailAtScaleSlowProb(0.01, 100); got < 0.63 || got > 0.64 {
		t.Fatalf("1%% × fanout 100 = %v, want ≈0.634", got)
	}
}

func TestFanoutQuantileOfMaxMatchesClosedForm(t *testing.T) {
	// Pure-exponential leaf population: compare the numeric inversion
	// against the closed form.
	mean := 1.0
	cdf := MixtureExpCDF(0, mean, 10*mean)
	for _, n := range []int{1, 4, 16} {
		got := FanoutQuantileOfMax(n, 0.99, 0, 1000, cdf)
		want := MaxOfExponentialsQuantile(n, mean, 0.99)
		if !close(got, want, 1e-6) {
			t.Fatalf("n=%d: %v vs %v", n, got, want)
		}
	}
}

func TestMixtureCDFSlowTail(t *testing.T) {
	cdf := MixtureExpCDF(0.1, 1, 10)
	if cdf(0) != 0 {
		t.Fatal("CDF(0)")
	}
	if cdf(-1) != 0 {
		t.Fatal("CDF(<0)")
	}
	// At x = 5·fastMean, fast population is essentially done but the
	// slow one is not: CDF < 1 − ~0.1·exp(−0.5).
	v := cdf(5)
	if v > 1-0.1*math.Exp(-0.5)+1e-6 {
		t.Fatalf("mixture tail too light: %v", v)
	}
	// CDF is nondecreasing.
	prev := 0.0
	for x := 0.0; x < 100; x += 0.5 {
		if c := cdf(x); c < prev {
			t.Fatal("CDF decreasing")
		} else {
			prev = c
		}
	}
}

// Property: ErlangC is in [0,1] and increasing in offered load.
func TestErlangCProperty(t *testing.T) {
	prop := func(k8 uint8, load float64) bool {
		k := int(k8%16) + 1
		if math.IsNaN(load) || math.IsInf(load, 0) {
			return true
		}
		a := math.Mod(math.Abs(load), float64(k))
		c1 := ErlangC(k, a*0.5)
		c2 := ErlangC(k, a*0.9)
		if c1 < 0 || c1 > 1 || c2 < 0 || c2 > 1 {
			return false
		}
		return c2 >= c1-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
