package analytic

import (
	"math"
	"testing"
)

// TestErlangCBoundaries pins the probability-space face of the saturated
// sentinel: negative/zero offered load waits with probability 0, at-or-past
// saturation waits with probability 1, and in between the value is a real
// probability that grows with load.
func TestErlangCBoundaries(t *testing.T) {
	cases := []struct {
		name string
		k    int
		a    float64
		want float64 // exact expected value, or -1 for "strictly inside (0,1)"
	}{
		{"negative load", 4, -1, 0},
		{"zero load", 4, 0, 0},
		{"zero servers", 0, 0.5, 1},
		{"negative servers", -3, 0.5, 1},
		{"at saturation", 4, 4, 1},
		{"past saturation", 4, 5, 1},
		{"just below saturation", 4, 4 - 1e-9, -1},
		{"light load", 4, 0.1, -1},
		{"single server half load", 1, 0.5, 0.5}, // M/M/1: C = rho
	}
	for _, c := range cases {
		got := ErlangC(c.k, c.a)
		if c.want >= 0 {
			if math.Abs(got-c.want) > 1e-9 {
				t.Errorf("%s: ErlangC(%d, %v) = %v, want %v", c.name, c.k, c.a, got, c.want)
			}
			continue
		}
		if !(got > 0 && got < 1) {
			t.Errorf("%s: ErlangC(%d, %v) = %v, want strictly inside (0,1)", c.name, c.k, c.a, got)
		}
	}
	// Monotone in offered load on the stable side.
	prev := 0.0
	for _, a := range []float64{0.5, 1, 2, 3, 3.9, 3.99} {
		v := ErlangC(4, a)
		if v <= prev {
			t.Fatalf("ErlangC(4, %v) = %v not increasing past %v", a, v, prev)
		}
		prev = v
	}
}

// TestMMkMeanWaitBoundaries walks rho across the saturation boundary and
// through every degenerate input: everything at or past rho==1 must be the
// sentinel, everything strictly inside must be finite and nonnegative.
func TestMMkMeanWaitBoundaries(t *testing.T) {
	cases := []struct {
		name      string
		lambda    float64
		mu        float64
		k         int
		saturated bool
	}{
		{"zero load", 0, 100, 2, false},
		{"rho 0.5", 100, 100, 2, false},
		{"rho just below 1", 2*100 - 1e-6, 100, 2, false},
		{"rho exactly 1", 200, 100, 2, true},
		{"rho above 1", 201, 100, 2, true},
		{"negative lambda", -1, 100, 2, true},
		{"zero mu", 10, 0, 2, true},
		{"negative mu", 10, -5, 2, true},
		{"zero servers", 10, 100, 0, true},
		{"negative servers", 10, 100, -1, true},
	}
	for _, c := range cases {
		if got := MMkSaturated(c.lambda, c.mu, c.k); got != c.saturated {
			t.Errorf("%s: MMkSaturated(%v,%v,%d) = %v, want %v",
				c.name, c.lambda, c.mu, c.k, got, c.saturated)
		}
		w := MMkMeanWait(c.lambda, c.mu, c.k)
		if IsSaturated(w) != c.saturated {
			t.Errorf("%s: MMkMeanWait(%v,%v,%d) = %v, saturated=%v want %v",
				c.name, c.lambda, c.mu, c.k, w, IsSaturated(w), c.saturated)
		}
		if !c.saturated && (w < 0 || math.IsNaN(w)) {
			t.Errorf("%s: MMkMeanWait = %v, want finite nonnegative", c.name, w)
		}
		lq := MMkAt(c.lambda, c.mu, c.k).QueueLen
		if IsSaturated(lq) != c.saturated {
			t.Errorf("%s: MMkPoint.QueueLen saturation mismatch: %v", c.name, lq)
		}
		// The sojourn helper must propagate the sentinel, not add 1/mu to it.
		s := MMkMeanSojourn(c.lambda, c.mu, c.k)
		if c.saturated && !IsSaturated(s) {
			t.Errorf("%s: MMkMeanSojourn = %v, want sentinel", c.name, s)
		}
	}
}

// TestMG1MeanWaitBoundaries does the same walk for Pollaczek–Khinchine.
func TestMG1MeanWaitBoundaries(t *testing.T) {
	const es = 0.010 // 10 ms mean service
	const es2 = 2e-4 // exponential: E[S^2] = 2·E[S]^2
	cases := []struct {
		name      string
		lambda    float64
		saturated bool
	}{
		{"zero load", 0, false},
		{"rho 0.5", 50, false},
		{"rho just below 1", 100 - 1e-6, false},
		{"rho exactly 1", 100, true},
		{"rho above 1", 101, true},
		{"negative lambda", -1, true},
	}
	for _, c := range cases {
		if got := MG1Saturated(c.lambda, es); got != c.saturated {
			t.Errorf("%s: MG1Saturated(%v, %v) = %v, want %v", c.name, c.lambda, es, got, c.saturated)
		}
		w := MG1MeanWait(c.lambda, es, es2)
		if IsSaturated(w) != c.saturated {
			t.Errorf("%s: MG1MeanWait(%v) = %v, saturated=%v want %v",
				c.name, c.lambda, w, IsSaturated(w), c.saturated)
		}
		if !c.saturated && (w < 0 || math.IsNaN(w)) {
			t.Errorf("%s: MG1MeanWait = %v, want finite nonnegative", c.name, w)
		}
	}
	// Degenerate service time is saturated regardless of load.
	if !IsSaturated(MG1MeanWait(10, 0, 0)) {
		t.Error("MG1MeanWait with es=0 must be the sentinel")
	}
	if !IsSaturated(MG1MeanWait(10, -1, 1)) {
		t.Error("MG1MeanWait with es<0 must be the sentinel")
	}
	// With exponential service, M/G/1 must agree with M/M/1: Wq = rho/(mu-lambda).
	lambda, mu := 60.0, 100.0
	want := (lambda / mu) / (mu - lambda)
	got := MG1MeanWait(lambda, 1/mu, 2/(mu*mu))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("M/G/1 with exponential service: got %v, want M/M/1 %v", got, want)
	}
}

// TestMMkWaitDist pins the distribution-space sentinel (pWait=1, condRate=0)
// and checks consistency with the mean on the stable side:
// E[Wq] = pWait / condRate.
func TestMMkWaitDist(t *testing.T) {
	for _, c := range []struct {
		lambda, mu float64
		k          int
	}{
		{200, 100, 2}, {-1, 100, 2}, {10, 0, 2}, {10, 100, 0},
	} {
		p, r := MMkWaitDist(c.lambda, c.mu, c.k)
		if p != 1 || r != 0 {
			t.Errorf("MMkWaitDist(%v,%v,%d) = (%v,%v), want (1,0)", c.lambda, c.mu, c.k, p, r)
		}
	}
	lambda, mu, k := 150.0, 100.0, 2
	p, r := MMkWaitDist(lambda, mu, k)
	if r != float64(k)*mu-lambda {
		t.Errorf("condRate = %v, want k·mu−lambda = %v", r, float64(k)*mu-lambda)
	}
	mean := MMkMeanWait(lambda, mu, k)
	if math.Abs(p/r-mean) > 1e-12 {
		t.Errorf("pWait/condRate = %v, want mean wait %v", p/r, mean)
	}
}

// TestMMkAt checks the epoch-evaluation struct: raw Rho is uncapped past
// saturation and the mean-value fields carry the sentinel.
func TestMMkAt(t *testing.T) {
	p := MMkAt(300, 100, 2) // rho 1.5
	if !p.Saturated || p.Rho != 1.5 || p.PWait != 1 ||
		!IsSaturated(p.MeanWaitS) || !IsSaturated(p.QueueLen) {
		t.Errorf("saturated point wrong: %+v", p)
	}
	p = MMkAt(100, 100, 2) // rho 0.5
	if p.Saturated || p.Rho != 0.5 || p.PWait <= 0 || p.PWait >= 1 {
		t.Errorf("stable point wrong: %+v", p)
	}
	if math.Abs(p.QueueLen-100*p.MeanWaitS) > 1e-12 {
		t.Errorf("Little's law violated: Lq=%v, lambda·Wq=%v", p.QueueLen, 100*p.MeanWaitS)
	}
	if got := MMkAt(10, 0, 2); !got.Saturated || !math.IsInf(got.Rho, 1) {
		t.Errorf("degenerate mu: %+v", got)
	}
}
