package uqsim

import (
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	s := New(Options{Seed: 1})
	s.AddMachine("m0", 16, DefaultFreqSpec)
	if _, err := s.Deploy(SingleStageService("api", Exponential(100*Microsecond)),
		RoundRobin, Placement{Machine: "m0", Cores: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(LinearTopology("main", "api")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: ConstantRate(5000)})
	rep, err := s.Run(Second/5, Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions == 0 || rep.Latency.P99() == 0 {
		t.Fatal("facade run produced no data")
	}
}

func TestFacadeScenarios(t *testing.T) {
	// Each scenario builder constructs without error through the facade.
	if _, err := TwoTier(TwoTierConfig{Seed: 1, QPS: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := ThreeTier(ThreeTierConfig{Seed: 1, QPS: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBalanced(ScaleOutConfig{Seed: 1, QPS: 100, Servers: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := Fanout(ScaleOutConfig{Seed: 1, QPS: 100, Servers: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := ThriftHello(ThriftHelloConfig{Seed: 1, QPS: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := SocialNetwork(SocialNetworkConfig{Seed: 1, QPS: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := TailAtScale(TailAtScaleConfig{Seed: 1, QPS: 10, Servers: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadePowerManager(t *testing.T) {
	s, err := TwoTier(TwoTierConfig{Seed: 2, QPS: 5000, Network: true})
	if err != nil {
		t.Fatal(err)
	}
	tiers, err := TiersOf(s, "nginx", "memcached")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewPowerManager(s, PowerConfig{
		Target: 5 * Millisecond, Interval: 100 * Millisecond,
	}, tiers)
	if err != nil {
		t.Fatal(err)
	}
	s.OnRequestDone = mgr.Observe
	mgr.Start()
	if _, err := s.Run(0, 2*Second); err != nil {
		t.Fatal(err)
	}
	if mgr.Cycles() == 0 {
		t.Fatal("power manager never cycled")
	}
}

func TestFacadeTiersOfUnknown(t *testing.T) {
	s := New(Options{Seed: 3})
	if _, err := TiersOf(s, "ghost"); err == nil {
		t.Fatal("unknown deployment should fail")
	} else if err.Error() == "" {
		t.Fatal("error should describe the deployment")
	}
}

func TestFacadeLoadConfig(t *testing.T) {
	setup, err := LoadConfig("configs/twotier")
	if err != nil {
		t.Fatal(err)
	}
	if setup.Duration != Second {
		t.Fatalf("duration %v", setup.Duration)
	}
}

func TestFacadeDistributions(t *testing.T) {
	for _, s := range []Sampler{
		Deterministic(100),
		Exponential(100 * Microsecond),
		Erlang(4, 100*Microsecond),
		LogNormal(100*Microsecond, 50*Microsecond),
	} {
		if s.Mean() <= 0 {
			t.Fatal("sampler mean should be positive")
		}
	}
}

func TestFacadeModels(t *testing.T) {
	for _, bp := range []*Blueprint{
		MemcachedModel(), NginxModel(), MongoDBModel(0.3, 8), ThriftServerModel("t", 10),
	} {
		if err := bp.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if DefaultNetwork().CoresPerMachine < 1 {
		t.Fatal("default network")
	}
}

func TestFacadeMonitor(t *testing.T) {
	s, err := TwoTier(TwoTierConfig{Seed: 5, QPS: 2000, Network: true})
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(s, 50*Millisecond)
	dep, _ := s.Deployment("nginx")
	series := mon.Watch("nginx-0", dep.Instances[0])
	mon.Start()
	if _, err := s.Run(0, Second); err != nil {
		t.Fatal(err)
	}
	if n := len(series.Util.Points()); n < 15 || len(series.QueueLen.Points()) != n {
		t.Fatalf("utilPoints=%d qlenPoints=%d", n, len(series.QueueLen.Points()))
	}
}

func TestFacadeCachedTwoTier(t *testing.T) {
	s, lru, err := CachedTwoTier(CachedTwoTierConfig{Seed: 5, QPS: 500})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0, Second); err != nil {
		t.Fatal(err)
	}
	if lru.HitRatio() == 0 {
		t.Fatal("cache never hit")
	}
}

func TestFacadeTimeouts(t *testing.T) {
	s, err := ThriftHello(ThriftHelloConfig{Seed: 5, QPS: 80000, Network: true})
	if err != nil {
		t.Fatal(err)
	}
	cc := s.Client()
	cc.Timeout = 5 * Millisecond
	s.SetClient(cc)
	rep, err := s.Run(200*Millisecond, Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeouts == 0 {
		t.Fatal("80k >> 57k capacity should trip timeouts")
	}
}
