package des

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEngineAt is the cold-path case: every scheduled event allocates
// a fresh handle because the caller may retain it for cancellation.
func BenchmarkEngineAt(b *testing.B) {
	e := New()
	hop := func(now Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+Microsecond, hop)
		e.Step()
	}
}

// BenchmarkEnginePost is the hot path that never cancels: fire-and-forget
// events are recycled through the queue's freelist, so the steady-state
// loop runs allocation-free.
func BenchmarkEnginePost(b *testing.B) {
	e := New()
	hop := func(now Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Post(e.Now()+Microsecond, hop)
		e.Step()
	}
}

// BenchmarkEnginePostNow is a service's dispatch pump: post at the current
// instant, then step, over a standing heap of 64 later events. The post
// takes the same-instant lane and never touches the heap.
func BenchmarkEnginePostNow(b *testing.B) {
	e := New()
	hop := func(Time) {}
	for i := 0; i < 64; i++ {
		e.Post(Time(i+1)*Second, hop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Post(e.Now(), hop)
		e.Step()
	}
}

// BenchmarkEngineChain measures a self-rescheduling event chain, the
// shape of service stage pumps and open-loop arrival generators.
func BenchmarkEngineChain(b *testing.B) {
	e := New()
	n := 0
	var hop Callback
	hop = func(now Time) {
		n++
		if n < b.N {
			e.Post(now+Microsecond, hop)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Post(0, hop)
	e.Run()
}

// BenchmarkEngineHold is the classic hold model: the queue stands at a
// fixed depth and every step pops the earliest event and posts one a
// random increment ahead. Depth 64 is the resilient shape, 4k a busy
// two-tier run, 100k the 600-leaf fan-out.
func BenchmarkEngineHold(b *testing.B) {
	for _, depth := range []int{64, 4096, 100_000} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			e := New()
			hop := func(Time) {}
			// Increments come from a table so the draw costs an index, not
			// an RNG call; 1021 is prime, so the pattern never locks step
			// with the heap's shape.
			r := rand.New(rand.NewSource(1))
			var inc [1021]Time
			for i := range inc {
				inc[i] = Time(1 + r.Int63n(int64(Second)))
			}
			for i := 0; i < depth; i++ {
				e.Post(inc[i%len(inc)], hop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Post(e.Now()+inc[i%len(inc)], hop)
				e.Step()
			}
		})
	}
}

// BenchmarkEngineArmCancel is a policy timer armed and abandoned before it
// fires, over the small standing heap of a resilient run: the event lives
// in the caller's record, so neither half allocates.
func BenchmarkEngineArmCancel(b *testing.B) {
	e := New()
	hop := func(Time) {}
	for i := 0; i < 64; i++ {
		e.Post(Time(i+1)*Second, hop)
	}
	var ev Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Arm(&ev, Millisecond, hop)
		e.Cancel(&ev)
	}
}
