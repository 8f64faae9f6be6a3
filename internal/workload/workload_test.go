package workload

import (
	"math"
	"testing"

	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/rng"
)

func TestConstantRate(t *testing.T) {
	p := ConstantRate(5000)
	if p.RateAt(0) != 5000 || p.RateAt(des.Second) != 5000 {
		t.Fatal("constant rate should not vary")
	}
}

func TestDiurnalShape(t *testing.T) {
	d := Diurnal{Base: 1000, Amplitude: 500, Period: 10 * des.Second}
	if got := d.RateAt(0); math.Abs(got-1000) > 1e-6 {
		t.Fatalf("rate at phase 0 = %v", got)
	}
	// Peak at quarter period.
	if got := d.RateAt(2500 * des.Millisecond); math.Abs(got-1500) > 1e-6 {
		t.Fatalf("peak rate = %v, want 1500", got)
	}
	// Trough at three-quarter period.
	if got := d.RateAt(7500 * des.Millisecond); math.Abs(got-500) > 1e-6 {
		t.Fatalf("trough rate = %v, want 500", got)
	}
}

func TestDiurnalFloor(t *testing.T) {
	d := Diurnal{Base: 100, Amplitude: 500, Period: 10 * des.Second, Floor: 50}
	if got := d.RateAt(7500 * des.Millisecond); got != 50 {
		t.Fatalf("floored rate = %v", got)
	}
	// Zero period degenerates to max(base, floor).
	z := Diurnal{Base: 10, Floor: 25}
	if z.RateAt(123) != 25 {
		t.Fatal("zero-period diurnal should use floor")
	}
}

func TestOpenLoopPoissonRate(t *testing.T) {
	eng := des.New()
	n := 0
	g := NewOpenLoop(eng, rng.New(1), ConstantRate(10000), func(des.Time) { n++ })
	g.Start(0)
	eng.RunUntil(10 * des.Second)
	// Expect ≈100k arrivals; Poisson stddev ≈316.
	if n < 98000 || n > 102000 {
		t.Fatalf("arrivals = %d, want ≈100000", n)
	}
}

func TestOpenLoopUniformGaps(t *testing.T) {
	eng := des.New()
	var times []des.Time
	g := NewOpenLoop(eng, rng.New(1), ConstantRate(1000), func(now des.Time) {
		times = append(times, now)
	})
	g.Proc = Uniform
	g.Start(0)
	eng.RunUntil(10 * des.Millisecond)
	if len(times) != 10 {
		t.Fatalf("arrivals = %d, want 10", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] != des.Millisecond {
			t.Fatalf("gap %v, want exactly 1ms", times[i]-times[i-1])
		}
	}
}

func TestOpenLoopStop(t *testing.T) {
	eng := des.New()
	n := 0
	g := NewOpenLoop(eng, rng.New(1), ConstantRate(1000), func(des.Time) { n++ })
	g.Proc = Uniform
	g.Start(0)
	eng.At(5500*des.Microsecond, func(des.Time) { g.Stop() })
	eng.RunUntil(des.Second)
	if n != 5 {
		t.Fatalf("arrivals after stop = %d, want 5", n)
	}
}

func TestOpenLoopZeroRateIdles(t *testing.T) {
	eng := des.New()
	n := 0
	// Rate 0 until 5ms, then 1000 QPS.
	p := patternFunc(func(t des.Time) float64 {
		if t < 5*des.Millisecond {
			return 0
		}
		return 1000
	})
	g := NewOpenLoop(eng, rng.New(1), p, func(des.Time) { n++ })
	g.Proc = Uniform
	g.Start(0)
	eng.RunUntil(10 * des.Millisecond)
	if n < 3 || n > 6 {
		t.Fatalf("arrivals = %d, want ≈5 (only the active half)", n)
	}
}

type patternFunc func(des.Time) float64

func (f patternFunc) RateAt(t des.Time) float64 { return f(t) }

func TestOpenLoopDiurnalModulatesThroughput(t *testing.T) {
	eng := des.New()
	var firstHalf, secondHalf int
	d := Diurnal{Base: 10000, Amplitude: 8000, Period: 2 * des.Second}
	g := NewOpenLoop(eng, rng.New(2), d, func(now des.Time) {
		if now < des.Second {
			firstHalf++
		} else {
			secondHalf++
		}
	})
	g.Start(0)
	eng.RunUntil(2 * des.Second)
	// First half covers the sine's positive lobe, second the negative.
	if firstHalf <= secondHalf {
		t.Fatalf("diurnal halves %d vs %d: peak half should dominate", firstHalf, secondHalf)
	}
}

func TestClosedLoopConcurrencyBound(t *testing.T) {
	eng := des.New()
	inFlight, maxInFlight, issued := 0, 0, 0
	var g *ClosedLoop
	g = NewClosedLoop(eng, rng.New(3), 4, func(now des.Time) {
		issued++
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		// Simulate 1ms of service, then completion.
		eng.At(now+des.Millisecond, func(t des.Time) {
			inFlight--
			g.RequestDone(t)
		})
	})
	g.Think = func(r *rng.Source) float64 { return 0 }
	g.Start(0)
	eng.RunUntil(10 * des.Millisecond)
	if maxInFlight != 4 {
		t.Fatalf("max in flight = %d, want 4", maxInFlight)
	}
	// 4 users × ~10 rounds each.
	if issued < 40 || issued > 44 {
		t.Fatalf("issued = %d, want ≈40", issued)
	}
}

func TestClosedLoopThinkTime(t *testing.T) {
	eng := des.New()
	issued := 0
	think := dist.NewDeterministic(float64(des.Millisecond))
	var g *ClosedLoop
	g = NewClosedLoop(eng, rng.New(4), 1, func(now des.Time) {
		issued++
		eng.At(now, func(t des.Time) { g.RequestDone(t) }) // instant service
	})
	g.Think = func(r *rng.Source) float64 { return think.Sample(r) }
	g.Start(0)
	eng.RunUntil(10*des.Millisecond - 1)
	// One request per 1ms think cycle.
	if issued != 10 {
		t.Fatalf("issued = %d, want 10", issued)
	}
}

func TestConstructorValidation(t *testing.T) {
	eng := des.New()
	for i, fn := range []func(){
		func() { NewOpenLoop(eng, rng.New(1), nil, func(des.Time) {}) },
		func() { NewOpenLoop(eng, rng.New(1), ConstantRate(1), nil) },
		func() { NewClosedLoop(eng, rng.New(1), 0, func(des.Time) {}) },
		func() { NewClosedLoop(eng, rng.New(1), 1, nil) },
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

func TestBurstPatternAlternates(t *testing.T) {
	b := &Burst{
		BaseRate:  1000,
		BurstRate: 9000,
		MeanOn:    100 * des.Millisecond,
		MeanOff:   100 * des.Millisecond,
		R:         rng.New(9),
	}
	sawBase, sawBurst := false, false
	for ts := des.Time(0); ts < 5*des.Second; ts += 10 * des.Millisecond {
		switch b.RateAt(ts) {
		case 1000:
			sawBase = true
		case 10000:
			sawBurst = true
		default:
			t.Fatalf("unexpected rate %v", b.RateAt(ts))
		}
	}
	if !sawBase || !sawBurst {
		t.Fatalf("pattern did not alternate: base=%v burst=%v", sawBase, sawBurst)
	}
}

func TestBurstDrivesOpenLoop(t *testing.T) {
	eng := des.New()
	n := 0
	b := &Burst{
		BaseRate:  500,
		BurstRate: 19500,
		MeanOn:    200 * des.Millisecond,
		MeanOff:   800 * des.Millisecond,
		R:         rng.New(10),
	}
	g := NewOpenLoop(eng, rng.New(11), b, func(des.Time) { n++ })
	g.Start(0)
	eng.RunUntil(10 * des.Second)
	// Expected mean rate ≈ 500 + 19500·(0.2/1.0) = 4400/s → ≈44k total
	// (wide bounds: only ~10 ON/OFF cycles fit in the window).
	if n < 25000 || n > 70000 {
		t.Fatalf("bursty arrivals = %d over 10s, want ≈44000", n)
	}
}

func TestBurstNeedsRNG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	(&Burst{}).RateAt(0)
}
