package experiments

import (
	"fmt"

	"uqsim/internal/apps"
	"uqsim/internal/cache"
	"uqsim/internal/des"
	"uqsim/internal/sim"
)

// extTimeouts demonstrates the timeout/retry extension — behaviour the
// paper explicitly notes its simulator lacks ("the simulator does not
// capture timeouts and the associated overhead of reconnections, which can
// cause the real system's latency to increase rapidly", §IV-C). With
// client timeouts and retries enabled, the saturated region degrades the
// way the real Thrift measurements did: observed latency pins at the
// patience bound and retries amplify the overload.
var extTimeouts = Spec{
	Cells: func(o Opts) (cells []Cell) {
		for _, c := range []struct {
			label   string
			timeout des.Time
			retries int
		}{
			{"patient", 0, 0},
			{"timeout-5ms", 5 * des.Millisecond, 0},
			{"timeout-5ms+2retries", 5 * des.Millisecond, 2},
		} {
			cells = append(cells, curve(o, []string{c.label}, 40000, 70000, 10000, des.Second,
				func(qps float64) (*sim.Sim, error) {
					s, err := apps.ThriftHello(apps.ThriftHelloConfig{Seed: o.Seed, QPS: qps, Network: true})
					if err != nil {
						return nil, err
					}
					cc := s.Client()
					cc.Timeout = c.timeout
					cc.MaxRetries = c.retries
					s.SetClient(cc)
					return s, nil
				})...)
		}
		return cells
	},
	Reduce: rows("Extension — client timeouts and retry amplification",
		"models the post-saturation cliff the paper attributes to timeouts/reconnections",
		"client", "offered_qps", "effective_qps", "goodput_qps", "timeout_rate", "p99_ms"),
}

// extCache sweeps LRU cache sizes in the emergent-cache two-tier
// scenario: the hit ratio (and therefore disk traffic and the latency
// distribution) emerges from cache capacity and Zipf key popularity
// instead of being a fixed model input, with the Zipf top-k mass as the
// analytic ceiling.
var extCache = Spec{
	Cells: func(o Opts) (cells []Cell) {
		w, d := o.window(300*des.Millisecond, 3*des.Second)
		const keys = 100000
		zipf := cache.NewZipf(keys, 0.99)
		for _, items := range []int{1000, 5000, 20000, 50000} {
			var lru *cache.LRU
			cells = append(cells, Cell{Label: []string{fmt.Sprint(items)}, Warmup: w, Window: d,
				Build: func() (s *sim.Sim, err error) {
					s, lru, err = apps.CachedTwoTier(apps.CachedTwoTierConfig{
						Seed: o.Seed, QPS: 800, Keys: keys, CacheItems: items, Network: true,
					})
					return s, err
				},
				Read: func(_ *sim.Sim, rep *sim.Report) any {
					mongoShare := 0.0
					if h := rep.PerTier["mongodb"]; h != nil && rep.Completions > 0 {
						mongoShare = float64(h.Count()) / float64(rep.Completions)
					}
					return cols{
						"hit_ratio":      fmt.Sprintf("%.3f", lru.HitRatio()),
						"zipf_topk_mass": fmt.Sprintf("%.3f", zipf.PopularMass(items)),
						"mongo_share":    fmt.Sprintf("%.3f", mongoShare),
					}
				}})
		}
		return cells
	},
	Reduce: rows("Extension — emergent LRU cache hit ratio",
		"hit probability derived from LRU+Zipf dynamics, not configured",
		"cache_items", "hit_ratio", "zipf_topk_mass", "mean_ms", "p99_ms", "mongo_share"),
}
