package hybrid

import (
	"math"
	"testing"

	"uqsim/internal/analytic"
	"uqsim/internal/des"
	"uqsim/internal/rng"
)

// TestMemoInvalidatedBySpeedChange is the stale-equilibrium regression:
// the memo key must cover effective µ, so a mid-run DVFS change re-solves
// the equilibrium even though λ and k are unchanged.
func TestMemoInvalidatedBySpeedChange(t *testing.T) {
	speed := 1.0
	svc := []Service{{
		Name: "web", Visits: 1, MeanServiceS: 0.010,
		Servers: func() int { return 4 },
		Speed:   func() float64 { return speed },
	}}
	eng := des.New()
	st, err := New(Config{SampleRate: 0.1}, svc,
		func(des.Time) float64 { return 240 }, rng.NewSplitter(2).Child("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	st.Start(eng, 0, 0)
	eng.RunUntil(100 * des.Millisecond)
	before := st.Point(0)
	if got, want := before.MeanWaitS, analytic.MMkAt(240, 100, 4).MeanWaitS; math.Abs(got-want) > 1e-12 {
		t.Fatalf("nominal wait %v, want closed form %v", got, want)
	}
	speed = 0.5 // underclock: µ halves, rho doubles
	eng.RunUntil(300 * des.Millisecond)
	after := st.Point(0)
	want := analytic.MMkAt(240, 50, 4)
	if math.Abs(after.Rho-want.Rho) > 1e-12 || math.Abs(after.MeanWaitS-want.MeanWaitS) > 1e-12 {
		t.Fatalf("degraded point %+v, want closed form %+v (stale memo?)", after, want)
	}
	if !(after.MeanWaitS > before.MeanWaitS) {
		t.Fatalf("DVFS degrade did not raise the equilibrium wait: %v -> %v", before.MeanWaitS, after.MeanWaitS)
	}
}

// TestAmplification pins the mean-field retry fixed point: identity
// without a policy or at negligible load, bounded by MaxRetries+1 in a
// storm, and collapsed back to ~1 when a breaker threshold trips.
func TestAmplification(t *testing.T) {
	if got := amplification(100, 100, 4, nil); got != 1 {
		t.Fatalf("no policy amp = %v, want 1", got)
	}
	quiet := amplification(10, 100, 4, &Policy{TimeoutS: 1, MaxRetries: 3})
	if math.Abs(quiet-1) > 1e-6 {
		t.Fatalf("quiet amp = %v, want ~1", quiet)
	}
	// Saturated service with a tight timeout: every attempt times out, so
	// the fixed point runs to the full attempt budget.
	storm := amplification(500, 100, 4, &Policy{TimeoutS: 0.001, MaxRetries: 3})
	if !(storm > 3.5 && storm <= 4) {
		t.Fatalf("storm amp = %v, want near MaxRetries+1 = 4", storm)
	}
	gated := amplification(500, 100, 4, &Policy{TimeoutS: 0.001, MaxRetries: 3, BreakerThreshold: 0.5})
	if math.Abs(gated-1) > 1e-6 {
		t.Fatalf("breaker-gated amp = %v, want ~1", gated)
	}
	if got := amplification(0, 100, 4, &Policy{TimeoutS: 0.001, MaxRetries: 3}); got != 1 {
		t.Fatalf("zero-load amp = %v, want 1", got)
	}
}

// TestRetryStormSheds: a service stable at one attempt per request but
// saturated under amplification must shed background flow and attribute
// it to retry_storm.
func TestRetryStormSheds(t *testing.T) {
	svc := []Service{{
		Name: "web", Visits: 1, MeanServiceS: 0.010,
		Servers: func() int { return 4 },
		// λ 300 < kµ 400 is stable alone; a tight timeout amplifies it
		// past capacity.
		Policy: &Policy{TimeoutS: 0.0005, MaxRetries: 5},
	}}
	eng := des.New()
	st, err := New(Config{SampleRate: 0.1}, svc,
		func(des.Time) float64 { return 300 }, rng.NewSplitter(4).Child("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	st.Start(eng, 0, 0)
	eng.RunUntil(des.Second)
	st.Finish(des.Second)
	snap := st.Snapshot()
	if snap.Shed == 0 {
		t.Fatalf("retry storm shed nothing: %+v", snap)
	}
	if snap.Arrivals != snap.Completions+snap.Shed+snap.Unreachable {
		t.Fatalf("conservation: %+v", snap)
	}
	by := st.ByCause()
	if by[CauseRetryStorm] != uint64(snap.Shed+snap.Unreachable) {
		t.Fatalf("attribution %v, want all %d under %s", by, snap.Shed, CauseRetryStorm)
	}
}

// TestUnreachableAccrual: a Loss callback reporting severed pairs routes
// background flow into the Unreachable bucket with partition attribution,
// and the extended conservation identity holds.
func TestUnreachableAccrual(t *testing.T) {
	cut := 0.0
	svc := []Service{{
		Name: "web", Visits: 1, MeanServiceS: 0.010,
		Servers: func() int { return 8 },
		Loss:    func() (float64, float64) { return cut, 0 },
	}}
	eng := des.New()
	st, err := New(Config{SampleRate: 0.1}, svc,
		func(des.Time) float64 { return 100 }, rng.NewSplitter(6).Child("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	st.Start(eng, 0, 0)
	eng.RunUntil(des.Second)
	cut = 0.5
	st.Resolve(des.Second) // partition fires mid-epoch
	eng.RunUntil(2 * des.Second)
	cut = 0
	st.Resolve(2 * des.Second) // heals
	eng.RunUntil(3 * des.Second)
	st.Finish(3 * des.Second)

	snap := st.Snapshot()
	if snap.Arrivals != snap.Completions+snap.Shed+snap.Unreachable {
		t.Fatalf("conservation: %+v", snap)
	}
	// One of three seconds at 50% cut: one sixth of 270 background
	// arrivals unreachable.
	want := int64(math.Round(100 * 0.9 * 0.5))
	if d := snap.Unreachable - want; d < -2 || d > 2 {
		t.Fatalf("unreachable %d, want ~%d (snap %+v)", snap.Unreachable, want, snap)
	}
	by := st.ByCause()
	if by[CausePartition] != uint64(snap.Unreachable+snap.Shed) {
		t.Fatalf("attribution %v, want all %d under %s", by, snap.Unreachable, CausePartition)
	}
}

// TestGrayLinkAttribution: drop-only loss books under gray_link; mixed
// cut+drop splits between partition and gray_link and still sums exactly.
func TestGrayLinkAttribution(t *testing.T) {
	svc := []Service{{
		Name: "web", Visits: 1, MeanServiceS: 0.010,
		Servers: func() int { return 8 },
		Loss:    func() (float64, float64) { return 0.2, 0.25 },
	}}
	eng := des.New()
	st, err := New(Config{SampleRate: 0.1}, svc,
		func(des.Time) float64 { return 100 }, rng.NewSplitter(8).Child("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	st.Start(eng, 0, 0)
	eng.RunUntil(des.Second)
	st.Finish(des.Second)
	snap := st.Snapshot()
	// loss = 0.2 + 0.8·0.25 = 0.4 of 90 background arrivals.
	if want := int64(math.Round(100 * 0.9 * 0.4)); snap.Unreachable < want-2 || snap.Unreachable > want+2 {
		t.Fatalf("unreachable %d, want ~%d", snap.Unreachable, want)
	}
	by := st.ByCause()
	if by[CausePartition] == 0 || by[CauseGrayLink] == 0 {
		t.Fatalf("attribution %v, want both partition and gray_link", by)
	}
	if by[CausePartition]+by[CauseGrayLink] != uint64(snap.Unreachable+snap.Shed) {
		t.Fatalf("attribution %v does not sum to losses in %+v", by, snap)
	}
	// cut 0.2 vs (1−cut)·drop 0.2: the split should be about even.
	if d := int64(by[CausePartition]) - int64(by[CauseGrayLink]); d < -2 || d > 2 {
		t.Fatalf("attribution split %v, want ~even", by)
	}
}

// TestShedCauseClassification drives each saturated-bottleneck cause.
func TestShedCauseClassification(t *testing.T) {
	run := func(fault string) Losses {
		t.Helper()
		k := 4
		speed := 1.0
		sv := Service{
			Name: "web", Visits: 1, MeanServiceS: 0.010,
			Servers: func() int { return k },
			Speed:   func() float64 { return speed },
		}
		eng := des.New()
		st, err := New(Config{SampleRate: 0.1}, []Service{sv},
			func(des.Time) float64 { return 500 }, rng.NewSplitter(11).Child("hybrid"))
		if err != nil {
			t.Fatal(err)
		}
		st.Start(eng, 0, 0)
		// Let the high-water k register, then apply the mid-run fault.
		eng.RunUntil(100 * des.Millisecond)
		switch fault {
		case "capacity":
			k = 2
		case "degrade":
			speed = 0.5
		}
		st.Resolve(100 * des.Millisecond)
		eng.RunUntil(des.Second)
		st.Finish(des.Second)
		return st.ByCause()
	}

	if by := run("none"); by[CauseOverload] == 0 {
		t.Fatalf("plain overload attribution %v", by)
	}
	if by := run("capacity"); by[CauseCapacity] == 0 {
		t.Fatalf("capacity-loss attribution %v", by)
	}
	if by := run("degrade"); by[CauseDegradeFreq] == 0 {
		t.Fatalf("DVFS-degrade attribution %v", by)
	}
}

// TestResolveMidEpoch: a Resolve between epoch edges accrues the old
// equilibrium up to the boundary and freezes the new one immediately —
// the event-driven re-solve contract for fault boundaries.
func TestResolveMidEpoch(t *testing.T) {
	k := 2
	svc := []Service{{Name: "web", Visits: 1, MeanServiceS: 0.010, Servers: func() int { return k }}}
	eng := des.New()
	st, err := New(Config{SampleRate: 0.1}, svc,
		func(des.Time) float64 { return 160 }, rng.NewSplitter(13).Child("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	st.Start(eng, 0, 0)
	eng.RunUntil(60 * des.Millisecond) // inside the second epoch [50ms, 100ms)
	before := st.Point(0).MeanWaitS
	k = 8
	st.Resolve(62 * des.Millisecond)
	after := st.Point(0).MeanWaitS
	if !(after < before/2) {
		t.Fatalf("mid-epoch Resolve did not re-solve: wait %v -> %v", before, after)
	}
	// Stale-time and post-Finish calls are no-ops.
	st.Resolve(10 * des.Millisecond)
	if got := st.Point(0).MeanWaitS; got != after {
		t.Fatalf("stale Resolve changed the equilibrium: %v -> %v", after, got)
	}
	eng.RunUntil(des.Second)
	st.Finish(des.Second)
	snapA := st.Snapshot()
	st.Resolve(2 * des.Second)
	if snapB := st.Snapshot(); snapA != snapB {
		t.Fatalf("post-Finish Resolve accrued: %+v -> %+v", snapA, snapB)
	}
}

// TestResolveNoRNG: Resolve is purely analytic — it must not consume from
// the wait-injection streams, so extra fault boundaries never perturb the
// determinism fingerprint.
func TestResolveNoRNG(t *testing.T) {
	build := func(resolves int) []des.Time {
		eng := des.New()
		st, err := New(Config{SampleRate: 0.1}, oneService(2, 0.010),
			func(des.Time) float64 { return 160 }, rng.NewSplitter(17).Child("hybrid"))
		if err != nil {
			t.Fatal(err)
		}
		st.Start(eng, 0, 0)
		eng.RunUntil(75 * des.Millisecond)
		for i := 0; i < resolves; i++ {
			st.Resolve(des.Time(75+des.Time(i)) * des.Millisecond)
		}
		out := make([]des.Time, 32)
		for i := range out {
			out[i] = st.WaitFor(0)
		}
		return out
	}
	a, b := build(0), build(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged after extra Resolves: %v != %v", i, a[i], b[i])
		}
	}
}

// TestApportionExact: largest-remainder apportionment hands out exactly
// total units, deterministically, for awkward weight mixes.
func TestApportionExact(t *testing.T) {
	a, b, c := CauseCapacity, CauseDegradeFreq, CauseOverload
	cases := []struct {
		weights map[Cause]float64
		total   int64
	}{
		{map[Cause]float64{a: 1, b: 1, c: 1}, 100},
		{map[Cause]float64{a: 1, b: 1, c: 1}, 101},
		{map[Cause]float64{a: 0.1, b: 0.3, c: 0.6}, 7},
		{map[Cause]float64{a: 1e-9, b: 1}, 3},
		{map[Cause]float64{}, 5},
		{map[Cause]float64{a: math.NaN(), b: -1}, 5},
	}
	for _, tc := range cases {
		var w [numCauses]float64
		for k, v := range tc.weights {
			w[k] = v
		}
		var out, out2 Losses
		apportion(&out, &w, tc.total, false, CauseRetryStorm)
		if out.Sum() != uint64(tc.total) {
			t.Errorf("apportion(%v, %d) handed out %d units: %v", tc.weights, tc.total, out.Sum(), out)
		}
		// Determinism: a second run distributes identically.
		apportion(&out2, &w, tc.total, false, CauseRetryStorm)
		if out2 != out {
			t.Errorf("apportion(%v, %d) nondeterministic: %v vs %v", tc.weights, tc.total, out, out2)
		}
	}
}

// TestConcurrentResolveUnderRace exercises epoch ticks and event-driven
// re-solves interleaved on one engine timeline — the pattern the race
// job must cover (fault events and epoch edges share the engine's
// sequential event loop; this pins the single-goroutine contract).
func TestConcurrentResolveUnderRace(t *testing.T) {
	k := 4
	svc := []Service{{Name: "web", Visits: 1, MeanServiceS: 0.010, Servers: func() int { return k }}}
	eng := des.New()
	st, err := New(Config{SampleRate: 0.2}, svc,
		func(des.Time) float64 { return 300 }, rng.NewSplitter(19).Child("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	st.Start(eng, 0, 0)
	// Interleave capacity flaps (posted off-epoch) with the 50ms epoch loop.
	for i := 1; i <= 40; i++ {
		at := des.Time(i) * 23 * des.Millisecond
		flip := i%2 == 0
		eng.Post(at, func(tt des.Time) {
			if flip {
				k = 1
			} else {
				k = 4
			}
			st.Resolve(tt)
		})
	}
	eng.RunUntil(des.Second)
	st.Finish(des.Second)
	snap := st.Snapshot()
	if snap.Arrivals != snap.Completions+snap.Shed+snap.Unreachable {
		t.Fatalf("conservation under interleaved resolves: %+v", snap)
	}
	if by := st.ByCause().Sum(); by != uint64(snap.Shed+snap.Unreachable) {
		t.Fatalf("attribution sum %d != shed %d + unreach %d", by, snap.Shed, snap.Unreachable)
	}
}
