package experiments

import (
	"fmt"

	"uqsim/internal/apps"
	"uqsim/internal/cache"
	"uqsim/internal/des"
)

// cacheZipf builds the popularity model used for the analytic ceiling
// column of the emergent-cache experiment.
func cacheZipf(n int, s float64) *cache.Zipf { return cache.NewZipf(n, s) }

// ExtTimeouts demonstrates the timeout/retry extension — behaviour the
// paper explicitly notes its simulator lacks ("the simulator does not
// capture timeouts and the associated overhead of reconnections, which can
// cause the real system's latency to increase rapidly", §IV-C). With
// client timeouts and retries enabled, the saturated region degrades the
// way the real Thrift measurements did: observed latency pins at the
// patience bound and retries amplify the overload.
func ExtTimeouts(o Opts) (*Table, error) {
	t := NewTable("Extension — client timeouts and retry amplification",
		"client", "offered_qps", "effective_qps", "goodput_qps", "timeout_rate", "p99_ms")
	t.Note = "models the post-saturation cliff the paper attributes to timeouts/reconnections"
	w, d := o.window(300*des.Millisecond, des.Second)
	loads, err := SweepGrid(40000, 70000, 10000)
	if err != nil {
		return nil, err
	}
	loads = o.thin(loads)
	for _, c := range []struct {
		label   string
		timeout des.Time
		retries int
	}{
		{"patient", 0, 0},
		{"timeout-5ms", 5 * des.Millisecond, 0},
		{"timeout-5ms+2retries", 5 * des.Millisecond, 2},
	} {
		for _, qps := range loads {
			s, err := apps.ThriftHello(apps.ThriftHelloConfig{Seed: o.Seed, QPS: qps, Network: true})
			if err != nil {
				return nil, err
			}
			cc := s.Client()
			cc.Timeout = c.timeout
			cc.MaxRetries = c.retries
			s.SetClient(cc)
			rep, err := measure(s, w, d)
			if err != nil {
				return nil, err
			}
			rate := 0.0
			attempts := rep.Completions + rep.Timeouts
			if attempts > 0 {
				rate = float64(rep.Timeouts) / float64(attempts)
			}
			t.Add(c.label,
				fmt.Sprintf("%.0f", qps),
				fmt.Sprintf("%.0f", rep.OfferedQPS),
				fmt.Sprintf("%.0f", rep.GoodputQPS),
				fmt.Sprintf("%.1f%%", 100*rate),
				fmt.Sprintf("%.3f", rep.Latency.P99().Millis()))
		}
	}
	return t, nil
}

// ExtEmergentCache sweeps LRU cache sizes in the emergent-cache two-tier
// scenario: the hit ratio (and therefore disk traffic and the latency
// distribution) emerges from cache capacity and Zipf key popularity
// instead of being a fixed model input, with the Zipf top-k mass as the
// analytic ceiling.
func ExtEmergentCache(o Opts) (*Table, error) {
	t := NewTable("Extension — emergent LRU cache hit ratio",
		"cache_items", "hit_ratio", "zipf_topk_mass", "mean_ms", "p99_ms", "mongo_share")
	t.Note = "hit probability derived from LRU+Zipf dynamics, not configured"
	w, d := o.window(300*des.Millisecond, 3*des.Second)
	const keys = 100000
	zipf := cacheZipf(keys, 0.99)
	for _, items := range []int{1000, 5000, 20000, 50000} {
		s, lru, err := apps.CachedTwoTier(apps.CachedTwoTierConfig{
			Seed: o.Seed, QPS: 800, Keys: keys, CacheItems: items, Network: true,
		})
		if err != nil {
			return nil, err
		}
		rep, err := measure(s, w, d)
		if err != nil {
			return nil, err
		}
		mongoShare := 0.0
		if h := rep.PerTier["mongodb"]; h != nil && rep.Completions > 0 {
			mongoShare = float64(h.Count()) / float64(rep.Completions)
		}
		t.Add(
			fmt.Sprintf("%d", items),
			fmt.Sprintf("%.3f", lru.HitRatio()),
			fmt.Sprintf("%.3f", zipf.PopularMass(items)),
			fmt.Sprintf("%.3f", rep.Latency.Mean().Millis()),
			fmt.Sprintf("%.3f", rep.Latency.P99().Millis()),
			fmt.Sprintf("%.3f", mongoShare),
		)
	}
	return t, nil
}
