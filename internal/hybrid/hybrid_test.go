package hybrid

import (
	"math"
	"testing"

	"uqsim/internal/analytic"
	"uqsim/internal/des"
	"uqsim/internal/rng"
)

func oneService(k int, meanS float64) []Service {
	return []Service{{
		Name:         "web",
		Visits:       1,
		MeanServiceS: meanS,
		Servers:      func() int { return k },
	}}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{SampleRate: 0.02}, true},
		{Config{SampleRate: 1}, true},
		{Config{SampleRate: 0}, false},
		{Config{SampleRate: -0.1}, false},
		{Config{SampleRate: 1.5}, false},
		{Config{SampleRate: math.NaN()}, false},
		{Config{SampleRate: 0.5, Epoch: -1}, false},
		{Config{SampleRate: 0.5, MaxWaitFactor: -1}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.cfg, err, c.ok)
		}
	}
}

// TestEquilibriumMatchesClosedForm: after the epoch loop runs under a
// constant envelope, the frozen per-service point must equal the
// analytic.MMkAt closed form at the background-inclusive offered load —
// the property the ISSUE names for the fluid tier.
func TestEquilibriumMatchesClosedForm(t *testing.T) {
	const meanS = 0.010 // 10ms, mu = 100/s
	const k = 4
	const qps = 240.0 // rho 0.6
	eng := des.New()
	st, err := New(Config{SampleRate: 0.05}, oneService(k, meanS),
		func(des.Time) float64 { return qps }, rng.NewSplitter(1).Child("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	st.Start(eng, 0, 50*des.Millisecond)
	eng.RunUntil(des.Second)
	st.Finish(des.Second)

	got := st.Point(0)
	want := analytic.MMkAt(qps, 1/meanS, k)
	if got.Saturated || math.Abs(got.Rho-want.Rho) > 1e-12 ||
		math.Abs(got.PWait-want.PWait) > 1e-12 ||
		math.Abs(got.MeanWaitS-want.MeanWaitS) > 1e-12 ||
		math.Abs(got.QueueLen-want.QueueLen) > 1e-12 {
		t.Fatalf("epoch point %+v != closed form %+v", got, want)
	}
}

// TestWaitForMatchesMeanWait: the empirical mean of many WaitFor draws
// must match the M/M/k mean wait within sampling tolerance — the tier's
// injected waits really are distributed as the closed form says.
func TestWaitForMatchesMeanWait(t *testing.T) {
	const meanS = 0.010
	const k = 2
	for _, qps := range []float64{60, 120, 160} { // rho 0.3, 0.6, 0.8
		eng := des.New()
		st, err := New(Config{SampleRate: 0.02}, oneService(k, meanS),
			func(des.Time) float64 { return qps }, rng.NewSplitter(7).Child("hybrid"))
		if err != nil {
			t.Fatal(err)
		}
		st.Start(eng, 0, 0)
		eng.RunUntil(des.Millisecond)

		const n = 200000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(st.WaitFor(0)) / 1e9
		}
		got := sum / n
		want := analytic.MMkMeanWait(qps, 1/meanS, k)
		if math.Abs(got-want) > 0.05*want+1e-6 {
			t.Errorf("qps %v: empirical mean wait %v, closed form %v", qps, got, want)
		}
	}
}

// TestConservationByConstruction: arrivals == completions + shed in every
// regime, including a saturated open-loop epoch.
func TestConservationByConstruction(t *testing.T) {
	for _, qps := range []float64{100, 500} { // stable and saturated (cap 400)
		eng := des.New()
		st, err := New(Config{SampleRate: 0.1}, oneService(4, 0.010),
			func(des.Time) float64 { return qps }, rng.NewSplitter(3).Child("hybrid"))
		if err != nil {
			t.Fatal(err)
		}
		st.Start(eng, 0, 0)
		eng.RunUntil(2 * des.Second)
		st.Finish(2 * des.Second)
		snap := st.Snapshot()
		if snap.Arrivals != snap.Completions+snap.Shed {
			t.Fatalf("qps %v: arrivals %d != completions %d + shed %d",
				qps, snap.Arrivals, snap.Completions, snap.Shed)
		}
		wantArr := int64(math.Round(qps * 0.9 * 2))
		if d := snap.Arrivals - wantArr; d < -1 || d > 1 {
			t.Errorf("qps %v: background arrivals %d, want ~%d", qps, snap.Arrivals, wantArr)
		}
		if qps == 100 && snap.Shed != 0 {
			t.Errorf("stable background shed %d, want 0", snap.Shed)
		}
		if qps == 500 {
			// Bottleneck serves 400 of 500 offered: shed 20% of background.
			wantShed := int64(math.Round(qps * 0.9 * 2 * 0.2))
			if d := snap.Shed - wantShed; d < -2 || d > 2 {
				t.Errorf("saturated shed %d, want ~%d", snap.Shed, wantShed)
			}
			if snap.SaturatedEpochs == 0 {
				t.Error("saturated run reported zero saturated epochs")
			}
		}
	}
}

// TestClosedNoShed: a closed (session) background population self-limits;
// even a rate at capacity sheds nothing.
func TestClosedNoShed(t *testing.T) {
	eng := des.New()
	st, err := New(Config{SampleRate: 0.1, Closed: true}, oneService(4, 0.010),
		func(des.Time) float64 { return 500 }, rng.NewSplitter(3).Child("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	st.Start(eng, 0, 0)
	eng.RunUntil(des.Second)
	st.Finish(des.Second)
	if snap := st.Snapshot(); snap.Shed != 0 || snap.Arrivals != snap.Completions {
		t.Fatalf("closed population shed: %+v", snap)
	}
}

// TestInertAtFullSampleRate: sample rate 1.0 must make the tier a no-op —
// no draws, no accrual, nothing for the fingerprint to see.
func TestInertAtFullSampleRate(t *testing.T) {
	eng := des.New()
	st, err := New(Config{SampleRate: 1}, oneService(2, 0.010),
		func(des.Time) float64 { return 1000 }, rng.NewSplitter(5).Child("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Active() {
		t.Fatal("sample rate 1.0 must be inert")
	}
	st.Start(eng, 0, 0)
	eng.RunUntil(des.Second) // must not schedule anything
	st.Finish(des.Second)
	if w := st.WaitFor(0); w != 0 {
		t.Fatalf("inert WaitFor = %v, want 0", w)
	}
	if snap := st.Snapshot(); snap != (Snapshot{}) {
		t.Fatalf("inert snapshot %+v, want zero", snap)
	}
}

// TestNonFiniteRateClamped: a degenerate rate function (Inf, NaN, or
// negative — e.g. a fixed point solved under total outage) must not poison
// the accrual integrals; the snapshot stays at finite, conserving counts.
func TestNonFiniteRateClamped(t *testing.T) {
	for _, bad := range []float64{math.Inf(1), math.NaN(), -5} {
		eng := des.New()
		st, err := New(Config{SampleRate: 0.1}, oneService(4, 0.010),
			func(des.Time) float64 { return bad }, rng.NewSplitter(3).Child("hybrid"))
		if err != nil {
			t.Fatal(err)
		}
		st.Start(eng, 0, 0)
		eng.RunUntil(des.Second)
		st.Finish(des.Second)
		snap := st.Snapshot()
		if snap.Arrivals != 0 || snap.Completions != 0 || snap.Shed != 0 {
			t.Fatalf("rate %v: snapshot %+v, want zero counts", bad, snap)
		}
	}
}

// TestRoundCountSaturates: the float→int64 resolution must clamp rather
// than hit the undefined conversion on non-finite or overflowing values.
func TestRoundCountSaturates(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{0, 0},
		{-3, 0},
		{math.NaN(), 0},
		{2.6, 3},
		{math.Inf(1), 1 << 62},
		{1e300, 1 << 62},
	}
	for _, c := range cases {
		if got := roundCount(c.in); got != c.want {
			t.Errorf("roundCount(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestSaturatedWaitCapped: saturated services inject the capped wait, not
// an unbounded draw.
func TestSaturatedWaitCapped(t *testing.T) {
	eng := des.New()
	st, err := New(Config{SampleRate: 0.5, MaxWaitFactor: 10}, oneService(1, 0.010),
		func(des.Time) float64 { return 1000 }, rng.NewSplitter(5).Child("hybrid")) // 10x capacity
	if err != nil {
		t.Fatal(err)
	}
	st.Start(eng, 0, 0)
	want := des.FromNanos(10 * 0.010 * 1e9)
	for i := 0; i < 10; i++ {
		if w := st.WaitFor(0); w != want {
			t.Fatalf("saturated wait %v, want capped %v", w, want)
		}
	}
}

// TestReplicaChangeReflected: the epoch loop re-reads Servers, so a
// scale-up mid-run lowers the equilibrium wait.
func TestReplicaChangeReflected(t *testing.T) {
	k := 2
	eng := des.New()
	svc := []Service{{Name: "web", Visits: 1, MeanServiceS: 0.010, Servers: func() int { return k }}}
	st, err := New(Config{SampleRate: 0.05}, svc,
		func(des.Time) float64 { return 160 }, rng.NewSplitter(9).Child("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	st.Start(eng, 0, 0)
	eng.RunUntil(100 * des.Millisecond)
	before := st.Point(0).MeanWaitS
	k = 8
	eng.RunUntil(300 * des.Millisecond)
	after := st.Point(0).MeanWaitS
	if !(after < before/2) {
		t.Fatalf("scale-up not reflected: wait %v -> %v", before, after)
	}
}

// TestWorkCounters: the simulator-side counters in the snapshot count what
// the tier did. Under a constant envelope only the first evaluation
// solves; a capacity change re-solves once, event-driven; a retry policy
// books its fixed point.
func TestWorkCounters(t *testing.T) {
	k := 4
	svc := []Service{{Name: "web", Visits: 1, MeanServiceS: 0.010, Servers: func() int { return k },
		Policy: &Policy{TimeoutS: 0.05, MaxRetries: 2}}}
	eng := des.New()
	st, err := New(Config{SampleRate: 0.2}, svc,
		func(des.Time) float64 { return 240 }, rng.NewSplitter(3).Child("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	st.Start(eng, 0, 0)
	eng.Post(520*des.Millisecond, func(tt des.Time) {
		k = 3
		st.Resolve(tt)
	})
	eng.RunUntil(des.Second)
	st.Finish(des.Second)
	w := st.Snapshot().Work
	// Evaluations at 0, 50ms, ..., 1s and one re-solve; two of them (the
	// first, and the one after the capacity change) miss the memo.
	if w.Epochs != 21 || w.Resolves != 1 || w.MemoHits != 20 || w.Solves != 2 {
		t.Fatalf("work counters %+v, want 21 epochs, 1 re-solve, 20 memo hits, 2 solves", w)
	}
	if w.Iterations < w.Solves || w.Iterations > 32*w.Solves || w.Capped > w.Solves {
		t.Fatalf("fixed-point counters out of range: %+v", w)
	}
}
