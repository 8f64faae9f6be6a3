package dist

import (
	"math"
	"testing"
	"testing/quick"

	"uqsim/internal/rng"
)

const sampleN = 200000

// sampleStats draws n samples and returns their mean and variance.
func sampleStats(t *testing.T, s Sampler, n int) (mean, variance float64) {
	t.Helper()
	r := rng.New(12345)
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Sample(r)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("sampler produced %v", v)
		}
		sum += v
		sumsq += v * v
	}
	mean = sum / float64(n)
	variance = sumsq/float64(n) - mean*mean
	return mean, variance
}

func assertClose(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		if math.Abs(got) > relTol {
			t.Errorf("%s = %v, want ≈0", name, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > relTol {
		t.Errorf("%s = %v, want ≈%v (tol %v)", name, got, want, relTol)
	}
}

func TestDeterministic(t *testing.T) {
	d := NewDeterministic(42)
	r := rng.New(1)
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 42 {
			t.Fatal("deterministic sampler varied")
		}
	}
	if d.Mean() != 42 {
		t.Fatal("mean mismatch")
	}
}

func TestExponentialMoments(t *testing.T) {
	e := NewExponential(250)
	mean, variance := sampleStats(t, e, sampleN)
	assertClose(t, "exp mean", mean, 250, 0.02)
	assertClose(t, "exp var", variance, 250*250, 0.05)
}

func TestExponentialPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewExponential(0)
}

func TestUniformMoments(t *testing.T) {
	u := NewUniform(10, 30)
	mean, variance := sampleStats(t, u, sampleN)
	assertClose(t, "uniform mean", mean, 20, 0.02)
	assertClose(t, "uniform var", variance, 400.0/12, 0.05)
	r := rng.New(5)
	for i := 0; i < 1000; i++ {
		v := u.Sample(r)
		if v < 10 || v >= 30 {
			t.Fatalf("uniform sample %v out of range", v)
		}
	}
}

func TestNormalTruncation(t *testing.T) {
	n := NewNormal(5, 100) // heavy truncation
	r := rng.New(2)
	for i := 0; i < 10000; i++ {
		if n.Sample(r) < 0 {
			t.Fatal("normal sampler returned negative value")
		}
	}
}

func TestNormalMoments(t *testing.T) {
	n := NewNormal(1000, 50) // effectively untruncated
	mean, variance := sampleStats(t, n, sampleN)
	assertClose(t, "normal mean", mean, 1000, 0.01)
	assertClose(t, "normal var", variance, 2500, 0.05)
}

func TestLogNormalFromMoments(t *testing.T) {
	l := LogNormalFromMoments(100, 50)
	mean, variance := sampleStats(t, l, sampleN)
	assertClose(t, "lognormal mean", mean, 100, 0.02)
	assertClose(t, "lognormal var", variance, 2500, 0.10)
	assertClose(t, "lognormal Mean()", l.Mean(), 100, 1e-9)
}

func TestParetoMeanAndTail(t *testing.T) {
	p := NewPareto(2.5, 60)
	mean, _ := sampleStats(t, p, sampleN)
	assertClose(t, "pareto mean", mean, p.Mean(), 0.05)
	if !math.IsNaN(NewPareto(0.9, 1).Mean()) {
		t.Error("pareto with shape<=1 should have NaN mean")
	}
	r := rng.New(3)
	for i := 0; i < 10000; i++ {
		if p.Sample(r) < 60 {
			t.Fatal("pareto sample below scale")
		}
	}
}

func TestErlangMomentsAndVarianceReduction(t *testing.T) {
	e := NewErlang(4, 200)
	mean, variance := sampleStats(t, e, sampleN)
	assertClose(t, "erlang mean", mean, 200, 0.02)
	// Var of Erlang-K with mean m is m^2/K.
	assertClose(t, "erlang var", variance, 200*200/4, 0.05)
}

func TestWeibullMean(t *testing.T) {
	w := NewWeibull(2, 100)
	mean, _ := sampleStats(t, w, sampleN)
	assertClose(t, "weibull mean", mean, w.Mean(), 0.02)
}

func TestScaled(t *testing.T) {
	s := NewScaled(NewDeterministic(100), 2.6/1.2)
	r := rng.New(1)
	assertClose(t, "scaled", s.Sample(r), 100*2.6/1.2, 1e-12)
	assertClose(t, "scaled mean", s.Mean(), 100*2.6/1.2, 1e-12)
}

func TestChoiceDistribution(t *testing.T) {
	c := NewChoice([]float64{1, 2, 7})
	r := rng.New(7)
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[c.Pick(r)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("choice %d frequency %v, want %v", i, got, want)
		}
	}
	if c.N() != 3 {
		t.Errorf("N = %d", c.N())
	}
}

func TestChoiceZeroWeightNeverPicked(t *testing.T) {
	c := NewChoice([]float64{0, 1, 0})
	r := rng.New(8)
	for i := 0; i < 10000; i++ {
		if c.Pick(r) != 1 {
			t.Fatal("picked zero-weight alternative")
		}
	}
}

// Property: all duration samplers produce non-negative values.
func TestNonNegativityProperty(t *testing.T) {
	prop := func(seed uint64, meanCenti uint32) bool {
		mean := float64(meanCenti%100000)/100 + 0.01
		r := rng.New(seed)
		samplers := []Sampler{
			NewExponential(mean),
			NewNormal(mean, mean/2),
			LogNormalFromMoments(mean, mean/3),
			NewErlang(3, mean),
			NewWeibull(1.5, mean),
			NewUniform(0, mean),
			NewPareto(2, mean),
		}
		for _, s := range samplers {
			for i := 0; i < 50; i++ {
				if s.Sample(r) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEmpiricalBasic(t *testing.T) {
	e, err := NewEmpirical([]float64{0, 10, 20, 50}, []float64{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	for i := 0; i < 10000; i++ {
		v := e.Sample(r)
		if v < 0 || v >= 50 {
			t.Fatalf("sample %v out of support", v)
		}
	}
	// Mean: bin midpoints 5, 15, 35 with weights .25, .5, .25 → 17.5.
	assertClose(t, "empirical mean", e.Mean(), 17.5, 1e-9)
	mean, _ := sampleStats(t, e, sampleN)
	assertClose(t, "empirical sampled mean", mean, 17.5, 0.02)
}

func TestEmpiricalValidation(t *testing.T) {
	cases := []struct {
		edges  []float64
		counts []float64
	}{
		{[]float64{0}, []float64{}},
		{[]float64{0, 10}, []float64{1, 2}},
		{[]float64{10, 10}, []float64{1}},
		{[]float64{0, 10}, []float64{-1}},
		{[]float64{0, 10}, []float64{0}},
	}
	for i, c := range cases {
		if _, err := NewEmpirical(c.edges, c.counts); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestFromSamplesRoundTrip(t *testing.T) {
	r := rng.New(10)
	src := NewExponential(100)
	raw := make([]float64, 20000)
	for i := range raw {
		raw[i] = src.Sample(r)
	}
	e, err := FromSamples(raw, 64)
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := sampleStats(t, e, sampleN)
	// Histogram truncates the exp tail at the max observation; allow slack.
	assertClose(t, "histogram-of-exp mean", mean, 100, 0.10)
}

func TestFromSamplesDegenerate(t *testing.T) {
	e, err := FromSamples([]float64{5, 5, 5, 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	v := e.Sample(r)
	if v < 5 || v > 6 {
		t.Fatalf("degenerate histogram sample %v", v)
	}
}

func TestFreqTableScalingFallback(t *testing.T) {
	ft := NewFreqTable(2600, NewDeterministic(100))
	r := rng.New(12)
	if got := ft.SampleAt(2600, r); got != 100 {
		t.Fatalf("nominal sample = %v", got)
	}
	if got := ft.SampleAt(1300, r); math.Abs(got-200) > 1e-9 {
		t.Fatalf("half-frequency sample = %v, want 200", got)
	}
}

func TestFreqTableExplicitEntry(t *testing.T) {
	ft := NewFreqTable(2600, NewDeterministic(100))
	ft.Set(1200, NewDeterministic(333))
	r := rng.New(13)
	if got := ft.SampleAt(1200, r); got != 333 {
		t.Fatalf("explicit entry sample = %v", got)
	}
	fs := ft.Frequencies()
	if len(fs) != 1 || fs[0] != 1200 {
		t.Fatalf("frequencies = %v", fs)
	}
}

func TestSpecBuildAll(t *testing.T) {
	specs := []string{
		`{"type":"deterministic","value_us":5}`,
		`{"type":"exponential","mean_us":100}`,
		`{"type":"uniform","lo_us":1,"hi_us":2}`,
		`{"type":"normal","mean_us":10,"stddev_us":2}`,
		`{"type":"lognormal","mean_us":10,"stddev_us":5}`,
		`{"type":"pareto","shape":2,"scale_us":10}`,
		`{"type":"erlang","k":3,"mean_us":30}`,
		`{"type":"weibull","shape":1.5,"scale_us":10}`,
		`{"type":"histogram","edges_us":[0,1,2],"counts":[1,1]}`,
		`{"type":"hyperexp","p":0.9,"mean_us":10,"mean2_us":100}`,
	}
	for _, raw := range specs {
		s, err := ParseSpec([]byte(raw))
		if err != nil {
			t.Errorf("spec %s: %v", raw, err)
			continue
		}
		r := rng.New(14)
		if v := s.Sample(r); v < 0 {
			t.Errorf("spec %s sampled %v", raw, v)
		}
	}
}

func TestSpecBuildUnitsAreMicroseconds(t *testing.T) {
	s, err := ParseSpec([]byte(`{"type":"deterministic","value_us":5}`))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(15)
	if got := s.Sample(r); got != 5000 {
		t.Fatalf("5us should sample as 5000ns, got %v", got)
	}
}

func TestSpecErrors(t *testing.T) {
	bad := []string{
		`{`,
		`{}`,
		`{"type":"nope"}`,
		`{"type":"exponential"}`,
		`{"type":"exponential","mean_us":-1}`,
		`{"type":"uniform","lo_us":5,"hi_us":1}`,
		`{"type":"lognormal","mean_us":10}`,
		`{"type":"pareto","shape":2}`,
		`{"type":"erlang","mean_us":10}`,
		`{"type":"histogram","edges_us":[0],"counts":[]}`,
		`{"type":"normal","mean_us":1,"stddev_us":-2}`,
		`{"type":"weibull","shape":-1,"scale_us":3}`,
		`{"type":"hyperexp","p":2,"mean_us":10,"mean2_us":100}`,
		`{"type":"hyperexp","p":0.5,"mean_us":10}`,
	}
	for _, raw := range bad {
		if _, err := ParseSpec([]byte(raw)); err == nil {
			t.Errorf("spec %s: expected error", raw)
		}
	}
}

func TestHyperExpMomentsAndSCV(t *testing.T) {
	h := NewHyperExp(0.9, 10, 500)
	mean, variance := sampleStats(t, h, sampleN)
	assertClose(t, "hyperexp mean", mean, h.Mean(), 0.03)
	wantVar := h.Mean() * h.Mean() * h.SCV()
	assertClose(t, "hyperexp var", variance, wantVar, 0.10)
	if h.SCV() <= 1 {
		t.Fatalf("H2 SCV = %v, must exceed 1", h.SCV())
	}
	// Degenerate single-phase case reduces to exponential (SCV 1).
	e := NewHyperExp(1, 100, 999)
	if e.SCV() < 0.99 || e.SCV() > 1.01 {
		t.Fatalf("single-phase SCV = %v", e.SCV())
	}
}

func TestHyperExpValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewHyperExp(-0.1, 1, 1) },
		func() { NewHyperExp(1.1, 1, 1) },
		func() { NewHyperExp(0.5, 0, 1) },
		func() { NewHyperExp(0.5, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: M/H2/1 mean waiting time matches Pollaczek–Khinchine.
func TestHyperExpPKFormula(t *testing.T) {
	h := NewHyperExp(0.8, 50, 400)
	es := h.Mean()
	es2 := es * es * (h.SCV() + 1)
	// Sanity of the moment identities used by analytic comparisons.
	r := rng.New(77)
	sum2 := 0.0
	const n = 300000
	for i := 0; i < n; i++ {
		v := h.Sample(r)
		sum2 += v * v
	}
	assertClose(t, "hyperexp E[S²]", sum2/n, es2, 0.05)
}

func TestMeansAndStringsAndGuards(t *testing.T) {
	// Mean accessors across samplers.
	if NewUniform(10, 30).Mean() != 20 {
		t.Fatal("uniform mean")
	}
	if NewNormal(7, 2).Mean() != 7 {
		t.Fatal("normal mean")
	}
	if NewErlang(3, 60).Mean() != 60 {
		t.Fatal("erlang mean")
	}
	if math.IsNaN((LogNormal{Mu: 1, Sigma: 0.5}).Mean()) {
		t.Fatal("lognormal mean")
	}
	// Strings used in logs.
	if NewDeterministic(5).String() == "" || NewExponential(5).String() == "" {
		t.Fatal("string forms")
	}
	// Constructor guards.
	for i, fn := range []func(){
		func() { NewUniform(5, 1) },
		func() { NewNormal(1, -1) },
		func() { NewPareto(0, 1) },
		func() { NewPareto(1, 0) },
		func() { NewErlang(0, 1) },
		func() { NewErlang(1, 0) },
		func() { NewWeibull(0, 1) },
		func() { NewScaled(nil, 1) },
		func() { NewScaled(NewDeterministic(1), -1) },
		func() { NewChoice(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("guard case %d: want panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestFreqTableGuards(t *testing.T) {
	for i, fn := range []func(){
		func() { NewFreqTable(0, NewDeterministic(1)) },
		func() { NewFreqTable(1000, nil) },
		func() { NewFreqTable(1000, NewDeterministic(1)).Set(1200, nil) },
		func() { NewFreqTable(1000, NewDeterministic(1)).At(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("guard case %d: want panic", i)
				}
			}()
			fn()
		}()
	}
	ft := NewFreqTable(2600, NewDeterministic(100))
	if s, nom := ft.Nominal(); nom != 2600 || s.Mean() != 100 {
		t.Fatal("nominal accessor")
	}
}
