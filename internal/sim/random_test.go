package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/netfault"
	"uqsim/internal/service"
	"uqsim/internal/workload"
)

// buildRandomTopology assembles a random layered topology: a root service,
// 1..3 middle services with random fan-out, and a join, with random
// per-service costs, random placements across 1..3 machines, and an
// optional connection pool. It exercises the whole dispatch surface.
func buildRandomTopology(t *testing.T, seed int64) *Sim {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s := New(Options{Seed: uint64(seed)})
	nMachines := 1 + r.Intn(3)
	for i := 0; i < nMachines; i++ {
		s.AddMachine(fmt.Sprintf("m%d", i), 16, cluster.FreqSpec{})
	}
	mach := func() string { return fmt.Sprintf("m%d", r.Intn(nMachines)) }

	// Optionally install a two-region geography (with WAN latency and a
	// region-homed client) so the determinism suites cover region-aware
	// routing, WAN delays, and stale-read accounting.
	withRegions := nMachines >= 2 && r.Intn(2) == 0
	if withRegions {
		cut := 1 + r.Intn(nMachines-1)
		var east, west []string
		for i := 0; i < nMachines; i++ {
			name := fmt.Sprintf("m%d", i)
			if i < cut {
				east = append(east, name)
			} else {
				west = append(west, name)
			}
		}
		geo, err := s.SetGeography([]cluster.Region{
			{Name: "east", Machines: east},
			{Name: "west", Machines: west},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := geo.SetDefaultWAN(cluster.WANLink{
			Latency: des.Time(1+r.Intn(3)) * des.Millisecond,
			PerKB:   des.Time(r.Intn(20)) * des.Microsecond,
		}); err != nil {
			t.Fatal(err)
		}
	}

	deploy := func(name string, meanUs float64) {
		t.Helper()
		var sampler dist.Sampler
		switch r.Intn(3) {
		case 0:
			sampler = dist.NewDeterministic(meanUs * 1000)
		case 1:
			sampler = dist.NewExponential(meanUs * 1000)
		default:
			sampler = dist.NewErlang(3, meanUs*1000)
		}
		instances := 1 + r.Intn(2)
		placements := make([]Placement, instances)
		for i := range placements {
			placements[i] = Placement{Machine: mach(), Cores: 1 + r.Intn(2)}
		}
		if _, err := s.Deploy(service.SingleStage(name, sampler),
			Policy(r.Intn(3)), placements...); err != nil {
			t.Fatal(err)
		}
	}

	deploy("root", 20)
	mids := 1 + r.Intn(3)
	for i := 0; i < mids; i++ {
		deploy(fmt.Sprintf("mid%d", i), 10+float64(r.Intn(100)))
	}
	deploy("join", 15)

	nodes := []graph.Node{{ID: 0, Service: "root", Instance: -1}}
	joinID := mids + 1
	for i := 0; i < mids; i++ {
		nodes[0].Children = append(nodes[0].Children, i+1)
		nodes = append(nodes, graph.Node{
			ID: i + 1, Service: fmt.Sprintf("mid%d", i), Instance: -1,
			Children: []int{joinID},
		})
	}
	nodes = append(nodes, graph.Node{ID: joinID, Service: "join", Instance: -1})
	topo := &graph.Topology{Trees: []graph.Tree{{Name: "t", Weight: 1, Root: 0, Nodes: nodes}}}
	if r.Intn(2) == 0 {
		topo.Pools = []graph.ConnPool{{Name: "cli", Capacity: 8 + r.Intn(64)}}
		topo.Trees[0].Nodes[0].AcquireConn = []string{"cli"}
		topo.Trees[0].Nodes[joinID].ReleaseConn = []string{"cli"}
	}
	if err := s.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	if r.Intn(2) == 0 {
		if err := s.EnableNetwork(NetworkConfig{
			CoresPerMachine: 1,
			PerMsg:          dist.NewDeterministic(float64(3 * des.Microsecond)),
			ClientTx:        r.Intn(2) == 0,
		}); err != nil {
			t.Fatal(err)
		}
	}
	cfg := ClientConfig{Pattern: workload.ConstantRate(float64(200 + r.Intn(2000)))}
	if withRegions {
		cfg.Region = []string{"east", "west"}[r.Intn(2)]
		// Geo-replicate the join tier when its random placements landed
		// replicas in both regions.
		if dep, _ := s.Deployment("join"); len(dep.Instances) >= 2 {
			spans := make(map[int]bool)
			for _, reg := range dep.instRegion {
				spans[reg] = true
			}
			if len(spans) >= 2 {
				if err := s.SetReplication("join", ReplicationSpec{
					Lag: des.Time(5+r.Intn(40)) * des.Millisecond,
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	s.SetClient(cfg)
	return s
}

// withRandomFaults derives a fault plan and resilience policies from seed
// and installs them on s: policies (with breakers) guarding the fan-out
// edges, shedding on the root, an instance outage, a machine crash, and a
// transient edge-latency injection — every fault kind except frequency
// scaling, which TestDegradeFreqSlowsService covers.
func withRandomFaults(t *testing.T, s *Sim, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	mids := len(s.Deployments()) - 2 // root + mids + join
	victim := fmt.Sprintf("mid%d", r.Intn(mids))
	for _, svc := range []string{victim, "join"} {
		p := fault.Policy{
			Timeout:       des.Time(2+r.Intn(20)) * des.Millisecond,
			MaxRetries:    1 + r.Intn(3),
			BackoffBase:   des.Time(1+r.Intn(5)) * des.Millisecond,
			BackoffJitter: 0.5,
		}
		if r.Intn(2) == 0 {
			p.Breaker = &fault.BreakerSpec{
				ErrorThreshold: 0.5, Window: 8 + r.Intn(16),
				Cooldown: des.Time(5+r.Intn(20)) * des.Millisecond,
			}
		}
		switch r.Intn(3) {
		case 0:
			p.Hedge = &fault.HedgeSpec{
				Delay:  des.Time(1+r.Intn(5)) * des.Millisecond,
				Jitter: 0.3,
			}
		case 1:
			p.Hedge = &fault.HedgeSpec{Quantile: 0.9, MinSamples: 8}
		}
		if err := s.SetServicePolicy(svc, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetMaxQueue("root", 64+r.Intn(64)); err != nil {
		t.Fatal(err)
	}
	if r.Intn(2) == 0 {
		kinds := []fault.QueueKind{fault.QueueCoDel, fault.QueueLIFO, fault.QueueCoDelLIFO}
		if err := s.SetQueueDiscipline("root", fault.QueueDiscipline{
			Kind:   kinds[r.Intn(len(kinds))],
			Target: des.Time(1+r.Intn(4)) * des.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if r.Intn(2) == 0 {
		cfg := s.Client()
		cfg.Budget = dist.NewUniform(float64(5*des.Millisecond), float64(50*des.Millisecond))
		s.SetClient(cfg)
	}
	kill := des.Time(50+r.Intn(100)) * des.Millisecond
	crash := des.Time(120+r.Intn(80)) * des.Millisecond
	lag := des.Time(30+r.Intn(50)) * des.Millisecond
	events := []fault.Event{
		{At: kill, Kind: fault.KillInstance, Service: victim, Instance: -1},
		{At: kill + 40*des.Millisecond, Kind: fault.RestartInstance, Service: victim, Instance: -1},
		{At: crash, Kind: fault.CrashMachine, Machine: "m0"},
		{At: crash + 25*des.Millisecond, Kind: fault.RecoverMachine, Machine: "m0"},
		{At: lag, Kind: fault.EdgeLatency, Service: "join",
			Extra: des.Time(1+r.Intn(3)) * des.Millisecond, Until: lag + 60*des.Millisecond},
	}
	// Network faults need a machine boundary to bite: a partition cutting
	// m0 from the rest (randomly one-way), a gray link, and a correlated
	// domain crash of the last machine's rack.
	if n := s.Cluster().Size(); n >= 2 {
		rest := make([]string, 0, n-1)
		for i := 1; i < n; i++ {
			rest = append(rest, fmt.Sprintf("m%d", i))
		}
		last := fmt.Sprintf("m%d", n-1)
		pStart := des.Time(40+r.Intn(80)) * des.Millisecond
		link := des.Time(10+r.Intn(40)) * des.Millisecond
		dCrash := des.Time(160+r.Intn(60)) * des.Millisecond
		events = append(events,
			fault.Event{At: pStart, Kind: fault.PartitionStart,
				Until:  pStart + des.Time(20+r.Intn(60))*des.Millisecond,
				GroupA: []string{"m0"}, GroupB: rest, OneWay: r.Intn(3) == 0},
			fault.Event{At: link, Kind: fault.SetLink,
				Until: link + des.Time(30+r.Intn(80))*des.Millisecond,
				Src:   "m0", Dst: last,
				Drop: 0.05 + 0.25*r.Float64(), Dup: 0.05 + 0.15*r.Float64()},
		)
		if r.Intn(2) == 0 {
			if err := s.SetDomains([]netfault.Domain{{Name: "rack", Machines: []string{last}}}); err != nil {
				t.Fatal(err)
			}
			events = append(events,
				fault.Event{At: dCrash, Kind: fault.CrashDomain, Domain: "rack",
					Stagger: des.Time(1+r.Intn(3)) * des.Millisecond},
				fault.Event{At: dCrash + 30*des.Millisecond, Kind: fault.RecoverDomain, Domain: "rack"},
			)
		}
		// Region loss: regions double as failure domains, and a region
		// crash may overlap the rack crash above — exercising the
		// per-machine crash-cause counting.
		if s.Geography() != nil && r.Intn(2) == 0 {
			rCrash := des.Time(90+r.Intn(60)) * des.Millisecond
			events = append(events,
				fault.Event{At: rCrash, Kind: fault.CrashDomain, Domain: "west",
					Stagger: des.Time(r.Intn(2)) * des.Millisecond},
				fault.Event{At: rCrash + des.Time(20+r.Intn(40))*des.Millisecond,
					Kind: fault.RecoverDomain, Domain: "west"},
			)
		}
	}
	if err := s.InstallFaults(fault.Plan{Events: events}); err != nil {
		t.Fatal(err)
	}
}

// reportFingerprint flattens everything a Report asserts about a run into
// one comparable string.
func reportFingerprint(rep *Report) string {
	fp := fmt.Sprintf("arr=%d comp=%d to=%d shed=%d drop=%d ddl=%d brk=%d retry=%d hedge=%d/%d cancel=%d waste=%d inflight=%d unreach=%d ldrop=%d ldup=%d xr=%d stale=%d mean=%v p50=%v p99=%v",
		rep.Arrivals, rep.Completions, rep.Timeouts, rep.Shed, rep.Dropped,
		rep.DeadlineExpired, rep.BreakerFastFails, rep.Retries,
		rep.HedgesIssued, rep.HedgeWins, rep.CanceledWork, rep.WastedWork, rep.InFlight,
		rep.Unreachable, rep.LinkDrops, rep.LinkDups,
		rep.CrossRegionCalls, rep.StaleReads,
		rep.Latency.Mean(), rep.Latency.P50(), rep.Latency.P99())
	svcs := make([]string, 0, len(rep.Errors))
	for svc := range rep.Errors {
		svcs = append(svcs, svc)
	}
	sort.Strings(svcs)
	for _, svc := range svcs {
		fp += fmt.Sprintf(" %s=%+v", svc, *rep.Errors[svc])
	}
	for _, ir := range rep.Instances {
		fp += fmt.Sprintf(" %s:%d/%d/%d/%d/%d",
			ir.Name, ir.Completed, ir.Shed, ir.Dropped, ir.Canceled, ir.Wasted)
	}
	return fp
}

// TestRandomFaultsDeterministic: the reproducibility guarantee extends to
// fault injection — the same seed and the same fault plan yield an
// identical report, however chaotic the run (outages, retries, breakers,
// shedding, crash-induced drops).
func TestRandomFaultsDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		run := func() string {
			s := buildRandomTopology(t, seed)
			withRandomFaults(t, s, seed)
			rep, err := s.Run(0, 300*des.Millisecond)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			total := rep.Completions + rep.Timeouts + rep.Shed + rep.Dropped +
				rep.DeadlineExpired + rep.Unreachable + uint64(rep.InFlight)
			if rep.Arrivals != total {
				t.Fatalf("seed %d: conservation: arrivals %d != %d", seed, rep.Arrivals, total)
			}
			return reportFingerprint(rep)
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("seed %d: reports differ\n a: %s\n b: %s", seed, a, b)
		}
	}
}

// withRandomOverload installs only the overload-control features — tight
// budgets, hedging on every fan-out edge, and a queue discipline — with
// no outages, so a post-horizon drain must settle every request.
func withRandomOverload(t *testing.T, s *Sim, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed ^ 0x0ced))
	mids := len(s.Deployments()) - 2
	for i := 0; i < mids; i++ {
		p := fault.Policy{
			Timeout:     des.Time(5+r.Intn(20)) * des.Millisecond,
			MaxRetries:  1,
			BackoffBase: des.Millisecond,
		}
		if r.Intn(2) == 0 {
			p.Hedge = &fault.HedgeSpec{Delay: des.Time(1+r.Intn(3)) * des.Millisecond}
		} else {
			p.Hedge = &fault.HedgeSpec{Quantile: 0.75, MinSamples: 8, Jitter: 0.5}
		}
		if err := s.SetServicePolicy(fmt.Sprintf("mid%d", i), p); err != nil {
			t.Fatal(err)
		}
	}
	kinds := []fault.QueueKind{fault.QueueCoDel, fault.QueueLIFO, fault.QueueCoDelLIFO}
	if err := s.SetQueueDiscipline("join", fault.QueueDiscipline{
		Kind:   kinds[r.Intn(len(kinds))],
		Target: des.Time(1+r.Intn(3)) * des.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	cfg := s.Client()
	cfg.Budget = dist.NewUniform(float64(2*des.Millisecond), float64(20*des.Millisecond))
	s.SetClient(cfg)
}

// TestRandomOverloadTopologiesDrain: with deadlines expiring mid-tree,
// hedges racing, and disciplines shedding, draining the engine past the
// horizon must leak no request, netproc delivery, pool token, or queued
// job — i.e. every cancellation path cleans up after itself.
func TestRandomOverloadTopologiesDrain(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		s := buildRandomTopology(t, seed)
		withRandomOverload(t, s, seed)
		rep, err := s.Run(0, 300*des.Millisecond)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Completions == 0 {
			t.Fatalf("seed %d: no completions", seed)
		}
		total := rep.Completions + rep.Timeouts + rep.Shed + rep.Dropped +
			rep.DeadlineExpired + rep.Unreachable + uint64(rep.InFlight)
		if rep.Arrivals != total {
			t.Fatalf("seed %d: conservation: arrivals %d != %d", seed, rep.Arrivals, total)
		}
		for s.Engine().Step() { // drain
		}
		if n := len(s.live); n != 0 {
			t.Fatalf("seed %d: %d requests leaked", seed, n)
		}
		if n := s.pendingN; n != 0 {
			t.Fatalf("seed %d: %d netproc deliveries leaked", seed, n)
		}
		if n := s.liveCalls; n != 0 {
			t.Fatalf("seed %d: %d tracked calls leaked", seed, n)
		}
		for _, p := range s.pools {
			if p.inUse() != 0 || p.waiters.len() != 0 {
				t.Fatalf("seed %d: pool %s leaked (%d in use, %d waiters)",
					seed, p.spec.Name, p.inUse(), p.waiters.len())
			}
		}
		for _, dep := range s.Deployments() {
			for _, in := range dep.Instances {
				if in.InFlight() != 0 || in.QueueLen() != 0 {
					t.Fatalf("seed %d: instance %s retains work", seed, in.Name)
				}
			}
		}
	}
}

// TestRandomTopologiesConserveRequests fuzzes the dispatch machinery:
// whatever the topology, after draining, no request, netproc delivery, or
// pool token may leak.
func TestRandomTopologiesConserveRequests(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		s := buildRandomTopology(t, seed)
		rep, err := s.Run(0, 300*des.Millisecond)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Completions == 0 {
			t.Fatalf("seed %d: no completions", seed)
		}
		for s.Engine().Step() { // drain
		}
		if n := len(s.live); n != 0 {
			t.Fatalf("seed %d: %d requests leaked", seed, n)
		}
		if n := s.pendingN; n != 0 {
			t.Fatalf("seed %d: %d netproc deliveries leaked", seed, n)
		}
		for _, p := range s.pools {
			if p.inUse() != 0 || p.waiters.len() != 0 {
				t.Fatalf("seed %d: pool %s leaked (%d in use, %d waiters)",
					seed, p.spec.Name, p.inUse(), p.waiters.len())
			}
		}
		for _, dep := range s.Deployments() {
			for _, in := range dep.Instances {
				if in.InFlight() != 0 || in.QueueLen() != 0 {
					t.Fatalf("seed %d: instance %s retains work", seed, in.Name)
				}
			}
		}
	}
}
