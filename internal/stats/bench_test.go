package stats

import (
	"testing"

	"uqsim/internal/des"
	"uqsim/internal/rng"
)

func BenchmarkLatencyHistRecord(b *testing.B) {
	h := NewLatencyHist()
	r := rng.New(1)
	vals := make([]des.Time, 4096)
	for i := range vals {
		vals[i] = des.FromNanos(r.ExpFloat64() * 1e6)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(vals[i%len(vals)])
	}
}

func BenchmarkLatencyHistQuantile(b *testing.B) {
	h := NewLatencyHist()
	r := rng.New(2)
	for i := 0; i < 100000; i++ {
		h.Record(des.FromNanos(r.ExpFloat64() * 1e6))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.99)
	}
}

// BenchmarkWindowedTailRecordQuery records one observation per op at a
// fixed rate and queries the p99 every 1000 records. The 1s window at
// 25k records/s holds 25k live entries, the power manager's load at
// Table III's diurnal peak.
func BenchmarkWindowedTailRecordQuery(b *testing.B) {
	for _, c := range []struct {
		name   string
		window des.Time
		gap    des.Time // virtual time between records
	}{
		{"100ms-1M/s", 100 * des.Millisecond, des.Microsecond},
		{"1s-25k/s", des.Second, 40 * des.Microsecond},
	} {
		b.Run(c.name, func(b *testing.B) {
			w := NewWindowedTail(c.window)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := des.Time(i) * c.gap
				w.Record(now, des.Time(i%1000)*des.Microsecond)
				if i%1000 == 999 {
					w.Quantile(now, 0.99)
				}
			}
		})
	}
}
