package main

import (
	"runtime"
	"time"

	"uqsim/internal/analytic"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/hybrid"
	"uqsim/internal/job"
	"uqsim/internal/queueing"
	"uqsim/internal/rng"
	"uqsim/internal/stats"
)

// sink and sinkJob keep the measured calls' results alive so the compiler
// can neither remove the calls nor keep their allocations on the stack.
var (
	sink    float64
	sinkJob *job.Job
)

// unitRounds is how many times each unit cost is measured; the median is
// reported.
const unitRounds = 3

// perOp times n operations done by body, unitRounds times, and returns the
// median cost of one.
func perOp(n int, unit time.Duration, body func(n int)) float64 {
	samples := make([]float64, unitRounds)
	for i := range samples {
		t0 := time.Now()
		body(n)
		samples[i] = float64(time.Since(t0)) / float64(unit) / float64(n)
	}
	return median(samples)
}

// unitCosts drives each layer's exported API alone with a fixed operation
// count. The figures do not depend on the workload; they say what one
// event, draw, record or solve costs when nothing else competes for the
// cache, which the profile shares of a whole run cannot.
func unitCosts(scale float64) map[string]float64 {
	out := map[string]float64{}
	hop := func(des.Time) {}
	// ops scales an operation count; tests run a sliver of each.
	ops := func(n int) int { return max(1, int(float64(n)*scale)) }

	// Post+Step on an empty queue: the twotier shape.
	e := des.New()
	out["des.post_step_ns"] = perOp(ops(1_000_000), time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			e.Post(e.Now()+des.Microsecond, hop)
			e.Step()
		}
	})

	// At+Cancel over a small standing heap: a policy timer armed and
	// cancelled before it fires, the resilient shape.
	e = des.New()
	for i := 0; i < 64; i++ {
		e.Post(des.Time(i+1)*des.Second, hop)
	}
	out["des.at_cancel_ns"] = perOp(ops(200_000), time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			e.Cancel(e.At(des.Millisecond, hop))
		}
	})

	// Post+Step holding 100k pending events: the fanout shape.
	e = des.New()
	r := rng.New(1)
	for i := 0; i < 100_000; i++ {
		e.Post(des.Time(r.Int64N(int64(des.Second))), hop)
	}
	out["des.step_ns_depth100k"] = perOp(ops(200_000), time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			e.Post(e.Now()+des.Time(r.Int64N(int64(des.Second))), hop)
			e.Step()
		}
	})

	out["rng.draw_ns"] = perOp(ops(5_000_000), time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			sink += r.Float64()
		}
	})
	var exp dist.Sampler = dist.NewExponential(1000)
	out["dist.exp_ns"] = perOp(ops(5_000_000), time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			sink += exp.Sample(r)
		}
	})
	var logn dist.Sampler = dist.LogNormalFromMoments(1000, 500)
	out["dist.lognormal_ns"] = perOp(ops(2_000_000), time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			sink += logn.Sample(r)
		}
	})

	h := stats.NewLatencyHist()
	out["stats.record_ns"] = perOp(ops(5_000_000), time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			h.Record(des.Time(i&0xfffff) * des.Microsecond)
		}
	})
	sink += float64(h.Count())

	fac := job.NewFactory()
	jobs := make([]*job.Job, 64)
	for i := range jobs {
		jobs[i] = fac.NewJob(nil)
		jobs[i].Conn = i
	}
	fifo := queueing.NewFIFO()
	out["queueing.fifo_ns"] = perOp(ops(2_000_000), time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			fifo.Push(jobs[i&63])
			sink += float64(fifo.Pop().Conn)
		}
	})
	// One job on each of 64 connections, then one batch: cost per job.
	epoll := queueing.NewEpoll(16)
	out["queueing.epoll_ns"] = perOp(ops(8000), time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			for _, j := range jobs {
				epoll.Push(j)
			}
			sink += float64(len(epoll.PopBatch(0)))
		}
	}) / float64(len(jobs))

	// One fanout request tree: a request, its root job and a clone per leaf.
	trees := ops(2000)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out["job.request_tree_ns"] = perOp(trees, time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			root := fac.NewJob(fac.NewRequest(des.Time(i)))
			for c := 0; c < fanoutServers; c++ {
				sinkJob = fac.Clone(root)
			}
		}
	})
	runtime.ReadMemStats(&m1)
	out["job.request_tree_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(trees*unitRounds)

	// One M/M/k solve at the hybrid_1m tier's size, and one fluid-tier
	// re-solve around it. The offered rate moves every call so the
	// per-epoch memo never answers.
	mu := 1 / hybridService.Seconds()
	lambda := 0.6 * mu * hybridCores
	out["analytic.mmk_us"] = perOp(ops(100), time.Microsecond, func(n int) {
		for i := 0; i < n; i++ {
			sink += analytic.MMkAt(lambda+float64(i), mu, hybridCores).PWait
		}
	})
	calls := 0
	st, err := hybrid.New(hybrid.Config{SampleRate: 0.002},
		[]hybrid.Service{{Name: "front", Visits: 1, MeanServiceS: hybridService.Seconds(), Servers: func() int { return hybridCores }}},
		func(des.Time) float64 { calls++; return lambda + float64(calls) },
		rng.NewSplitter(1))
	if err != nil {
		panic(err) // the literal configuration above is valid
	}
	st.Start(des.New(), 0, 0)
	now := des.Time(0)
	out["hybrid.resolve_us"] = perOp(ops(100), time.Microsecond, func(n int) {
		for i := 0; i < n; i++ {
			now += des.Millisecond
			st.Resolve(now)
		}
	})
	sink += float64(st.Snapshot().Arrivals)
	return out
}
