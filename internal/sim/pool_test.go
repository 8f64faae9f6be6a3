package sim

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/job"
	"uqsim/internal/service"
	"uqsim/internal/workload"
)

// randomSuites are the randomized topology families of random_test.go —
// plain dispatch, the full fault vocabulary with policies, and overload
// control — plus three families aimed at what outlives a request.
var randomSuites = []struct {
	name  string
	seeds int64
	build func(*testing.T, int64) *Sim // nil: buildRandomTopology
	with  func(*testing.T, *Sim, int64)
	// golden is the SHA-256 prefix over every seed's fingerprint and drained
	// event count, recorded at the commit before the request path started
	// recycling its objects (PR 12); the races family was added with PR 16.
	// Since PR 16 a terminated request's client timeout and retry backoffs
	// are disarmed whether or not overload control is on; before, without it,
	// they stayed queued and fired as no-ops (onTimeout and startAttempt
	// return at once for an ended request). runRandom adds those back per
	// seed, so the pre-PR-12 hashes still hold unchanged.
	// Fingerprints are taken as Run returns. They used to be taken after the
	// drain, which went on adding latency samples and error counts to the
	// report; six hashes were re-pinned to what the same runs' reports held
	// as Run returned, so no event, draw or ID moved.
	golden string
}{
	{name: "plain", seeds: 25, golden: "9783f147a2cffe0b"},
	{name: "faults", seeds: 15, with: withRandomFaults, golden: "c91385f21c1c8ff6"},
	{name: "overload", seeds: 25, with: withRandomOverload, golden: "ca8a90c554444090"},
	{name: "retries", seeds: 25, with: withRandomRetries, golden: "0ed18df728f5ebfe"},
	{name: "orphans", seeds: 10, build: buildOrphanedAttempts, golden: "a82c45d3c6255b8d"},
	{name: "starved", seeds: 10, build: buildStarvedPool, golden: "98fa479bf8a3abf1"},
	{name: "races", seeds: 15, build: buildHedgeRaces, golden: "bdbf0c411b7a2534"},
}

// buildOrphanedAttempts fans root out to b then a, both behind retry-less
// policies with timeouts and no overload control. Service a is killed for
// good early on, so from then every request dispatches its attempt on b and
// at once fails on a; when b is killed too, the attempts queued there lose
// their jobs after their requests have ended, and their timeouts fire for
// attempts that have neither a job nor a request left.
func buildOrphanedAttempts(t *testing.T, seed int64) *Sim {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s := New(Options{Seed: uint64(seed)})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	for _, svc := range []struct {
		name   string
		meanUs float64
	}{{"root", 20}, {"a", 50}, {"b", float64(500 + r.Intn(2000))}, {"join", 20}} {
		if _, err := s.Deploy(service.SingleStage(svc.name, dist.NewExponential(svc.meanUs*1000)),
			RoundRobin, Placement{Machine: "m0", Cores: 1}); err != nil {
			t.Fatal(err)
		}
	}
	topo := &graph.Topology{Trees: []graph.Tree{{Name: "t", Weight: 1, Root: 0, Nodes: []graph.Node{
		{ID: 0, Service: "root", Instance: -1, Children: []int{1, 2}},
		{ID: 1, Service: "b", Instance: -1, Children: []int{3}},
		{ID: 2, Service: "a", Instance: -1, Children: []int{3}},
		{ID: 3, Service: "join", Instance: -1},
	}}}}
	if err := s.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	for _, svc := range []string{"a", "b"} {
		if err := s.SetServicePolicy(svc, fault.Policy{Timeout: des.Time(10+r.Intn(30)) * des.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(float64(1000 + r.Intn(3000)))})
	killB := des.Time(20+r.Intn(40)) * des.Millisecond
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 5 * des.Millisecond, Kind: fault.KillInstance, Service: "a", Instance: -1},
		{At: killB, Kind: fault.KillInstance, Service: "b", Instance: -1},
		{At: killB + 60*des.Millisecond, Kind: fault.RestartInstance, Service: "b", Instance: -1},
	}}); err != nil {
		t.Fatal(err)
	}
	return s
}

// buildStarvedPool puts a one-to-three-token connection pool in front of a
// slow service and gives every request a deadline shorter than the wait:
// requests expire, and are recycled, while still parked as pool waiters.
func buildStarvedPool(t *testing.T, seed int64) *Sim {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s := New(Options{Seed: uint64(seed)})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	for _, svc := range []struct {
		name   string
		meanUs float64
	}{{"root", 20}, {"leaf", float64(500 + r.Intn(1500))}} {
		if _, err := s.Deploy(service.SingleStage(svc.name, dist.NewExponential(svc.meanUs*1000)),
			RoundRobin, Placement{Machine: "m0", Cores: 1}); err != nil {
			t.Fatal(err)
		}
	}
	topo := graph.Linear("t", "root", "leaf")
	topo.Pools = []graph.ConnPool{{Name: "cli", Capacity: 1 + r.Intn(3)}}
	topo.Trees[0].Nodes[0].AcquireConn = []string{"cli"}
	topo.Trees[0].Nodes[1].ReleaseConn = []string{"cli"}
	if err := s.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{
		Pattern: workload.ConstantRate(float64(1500 + r.Intn(2000))),
		Budget:  dist.NewUniform(float64(des.Millisecond), float64(8*des.Millisecond)),
	})
	return s
}

// buildHedgeRaces is aimed at the pooled call and hedge records. Root fans
// out to a and b, three instances each behind a policy with a hedge, a
// breaker, a timeout and two retries whose backoff is as long as the
// request's whole budget. Instances of both are killed and restarted, so
// breakers trip and re-probe. Over the seeds hedges win their race (the
// primary's record is released while its job runs on), half-open probes are
// torn down by a lost race or an expired deadline, and deadlines expire
// while an edge is waiting out a backoff.
func buildHedgeRaces(t *testing.T, seed int64) *Sim {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s := New(Options{Seed: uint64(seed)})
	s.AddMachine("m0", 32, cluster.FreqSpec{})
	for _, svc := range []struct {
		name      string
		meanUs    float64
		instances int
	}{{"root", 20, 1}, {"a", float64(300 + r.Intn(600)), 3}, {"b", float64(300 + r.Intn(600)), 3}, {"join", 20, 1}} {
		placements := make([]Placement, svc.instances)
		for i := range placements {
			placements[i] = Placement{Machine: "m0", Cores: 1}
		}
		if _, err := s.Deploy(service.SingleStage(svc.name, dist.NewExponential(svc.meanUs*1000)),
			RoundRobin, placements...); err != nil {
			t.Fatal(err)
		}
	}
	topo := &graph.Topology{Trees: []graph.Tree{{Name: "t", Weight: 1, Root: 0, Nodes: []graph.Node{
		{ID: 0, Service: "root", Instance: -1, Children: []int{1, 2}},
		{ID: 1, Service: "a", Instance: -1, Children: []int{3}},
		{ID: 2, Service: "b", Instance: -1, Children: []int{3}},
		{ID: 3, Service: "join", Instance: -1},
	}}}}
	if err := s.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	for _, svc := range []string{"a", "b"} {
		if err := s.SetServicePolicy(svc, fault.Policy{
			Timeout:     des.Time(2+r.Intn(4)) * des.Millisecond,
			MaxRetries:  2,
			BackoffBase: des.Time(2+r.Intn(6)) * des.Millisecond,
			Hedge:       &fault.HedgeSpec{Delay: des.Time(300+r.Intn(900)) * des.Microsecond, Jitter: 0.3},
			Breaker: &fault.BreakerSpec{
				ErrorThreshold: 0.3, Window: 6 + r.Intn(10),
				Cooldown: des.Time(3+r.Intn(10)) * des.Millisecond,
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.SetClient(ClientConfig{
		Pattern: workload.ConstantRate(float64(1500 + r.Intn(2000))),
		Budget:  dist.NewUniform(float64(2*des.Millisecond), float64(10*des.Millisecond)),
	})
	var events []fault.Event
	for _, svc := range []string{"a", "b"} {
		for i := 0; i < 3; i++ {
			at := des.Time(20+r.Intn(200)) * des.Millisecond
			events = append(events,
				fault.Event{At: at, Kind: fault.KillInstance, Service: svc, Instance: i},
				fault.Event{At: at + des.Time(10+r.Intn(40))*des.Millisecond, Kind: fault.RestartInstance, Service: svc, Instance: i})
		}
	}
	if err := s.InstallFaults(fault.Plan{Events: events}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHedgeRacesReach keeps buildHedgeRaces aimed: over its seeds hedges
// must win races, breakers must trip and deadlines must fire while a retry
// backoff is pending. (Probe teardown has no counter; a count in
// abandonCall read 59 over the fifteen seeds when the family was written.)
func TestHedgeRacesReach(t *testing.T) {
	var wins, trips, midBackoff, expired uint64
	for seed := int64(1); seed <= 15; seed++ {
		s := buildHedgeRaces(t, seed)
		rep, err := s.Run(0, 300*des.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		wins += rep.HedgeWins
		expired += rep.Timers[TimerDeadline].Fired
		midBackoff += rep.Timers[TimerRetryBackoff].Cancelled
		for _, b := range s.Breakers() {
			trips += b.Trips
		}
	}
	if wins == 0 || trips == 0 || midBackoff == 0 || expired == 0 {
		t.Fatalf("hedge wins %d, breaker trips %d, backoffs disarmed %d, deadlines fired %d: all must be reached",
			wins, trips, midBackoff, expired)
	}
}

// withRandomRetries installs retrying policies, an impatient retrying
// client and outages, but none of the overload-control features. Without
// them nothing cancels a terminated request's timers or attempts: client
// timeouts, retry backoffs and attempt timeouts fire after the request (and
// sometimes its jobs) are gone, which is the regime the recycling rules
// have to survive and the two suites above rarely reach.
func withRandomRetries(t *testing.T, s *Sim, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed ^ 0x7e7))
	mids := len(s.Deployments()) - 2
	for i := 0; i < mids; i++ {
		p := fault.Policy{
			Timeout:       des.Time(1+r.Intn(8)) * des.Millisecond,
			MaxRetries:    1 + r.Intn(3),
			BackoffBase:   des.Time(1+r.Intn(10)) * des.Millisecond,
			BackoffJitter: 0.5,
		}
		if r.Intn(2) == 0 {
			p.Breaker = &fault.BreakerSpec{
				ErrorThreshold: 0.5, Window: 8 + r.Intn(16),
				Cooldown: des.Time(5+r.Intn(20)) * des.Millisecond,
			}
		}
		if err := s.SetServicePolicy(fmt.Sprintf("mid%d", i), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetMaxQueue("join", 16+r.Intn(32)); err != nil {
		t.Fatal(err)
	}
	cfg := s.Client()
	cfg.Timeout = des.Time(2+r.Intn(10)) * des.Millisecond
	cfg.MaxRetries = r.Intn(3)
	s.SetClient(cfg)
	victim := fmt.Sprintf("mid%d", r.Intn(mids))
	kill := des.Time(40+r.Intn(80)) * des.Millisecond
	crash := des.Time(150+r.Intn(60)) * des.Millisecond
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: kill, Kind: fault.KillInstance, Service: victim, Instance: -1},
		{At: kill + 30*des.Millisecond, Kind: fault.RestartInstance, Service: victim, Instance: -1},
		{At: crash, Kind: fault.CrashMachine, Machine: "m0"},
		{At: crash + 25*des.Millisecond, Kind: fault.RecoverMachine, Machine: "m0"},
		{At: 20 * des.Millisecond, Kind: fault.EdgeLatency, Service: "join",
			Extra: des.Time(1+r.Intn(6)) * des.Millisecond, Until: 90 * des.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
}

// runRandom runs one randomized cell to its horizon, drains the engine and
// returns the report fingerprint with the number of events fired, counting
// in the dead timers a run without overload control no longer fires. The
// drain must leave the report as Run returned it, and, unless released
// blocks are poisoned, every request block handed out back on the free list
// exactly once.
func runRandom(t *testing.T, seed int64, build func(*testing.T, int64) *Sim, with func(*testing.T, *Sim, int64), prep func(*Sim)) string {
	t.Helper()
	if build == nil {
		build = buildRandomTopology
	}
	s := build(t, seed)
	if with != nil {
		with(t, s, seed)
	}
	if prep != nil {
		prep(s)
	}
	blocks := make(map[*reqState]bool) // every block a request terminated in
	s.OnRequestDone = func(_ des.Time, req *job.Request) { blocks[req.Owner.(*reqState)] = true }
	rep, err := s.Run(0, 300*des.Millisecond)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	fp := reportFingerprint(rep)
	for s.Engine().Step() { // drain
	}
	if err := s.VerifyDrained(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if after := reportFingerprint(rep); after != fp {
		t.Fatalf("seed %d: the drain after Run changed the report\n at Run: %s\n drained: %s", seed, fp, after)
	}
	if !s.poisonReleased {
		// The slab hands back its spare blocks first: one per block a
		// request terminated in, each once, before it carves a new one.
		for n := len(blocks); n > 0; n-- {
			st := s.states.Get()
			if !blocks[st] {
				t.Fatalf("seed %d: request block %p is on the slab twice, or was never handed out, or %d blocks never came back",
					seed, st, n)
			}
			delete(blocks, st)
		}
		// A block released twice leaves one spare too many, wherever
		// the copy sits: the next take must be carved fresh, and only a
		// recycled block has its Owner set.
		if st := s.states.Get(); st.Owner != nil {
			t.Fatalf("seed %d: request block %p is on the slab twice", seed, st)
		}
	}
	events := s.Engine().Processed()
	if s.ovl == nil {
		events += s.timers[TimerClientTimeout].Cancelled + s.timers[TimerRetryBackoff].Cancelled
	}
	return fmt.Sprintf("%s events=%d", fp, events)
}

// TestRandomTopologyGoldens pins the randomized families byte for byte
// against the pre-pooling commit: recycling jobs, requests and request state
// must not move an event, an RNG draw or an ID.
func TestRandomTopologyGoldens(t *testing.T) {
	for _, suite := range randomSuites {
		h := sha256.New()
		for seed := int64(1); seed <= suite.seeds; seed++ {
			fmt.Fprintln(h, runRandom(t, seed, suite.build, suite.with, nil))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil))[:16]; got != suite.golden {
			t.Errorf("%s: fingerprints hash to %s, pinned %s", suite.name, got, suite.golden)
		}
	}
}

// TestPoisonedReleaseChangesNothing is the pool-hygiene check. With
// poisonReleased set, every released job, request and reqState is
// overwritten with garbage that looks alive and is never handed out again,
// so whatever reads an object after its release either panics or drives the
// run off its fingerprint; and because the poisoned run recycles nothing,
// matching it also shows that recycled storage carries no state into its
// next life.
//
// Request blocks, calls and hedge races are carved from slabs, a poisoned
// record beside live ones in the same array. After a poisoned run every
// record those slabs hand out is new and zeroed: no poisoned record went
// back, and poisoning one wrote nothing into its neighbours.
func TestPoisonedReleaseChangesNothing(t *testing.T) {
	var poisoned *Sim
	poison := func(s *Sim) { s.poisonReleased, poisoned = true, s }
	for _, suite := range randomSuites {
		for seed := int64(1); seed <= suite.seeds; seed++ {
			want := runRandom(t, seed, suite.build, suite.with, nil)
			if got := runRandom(t, seed, suite.build, suite.with, poison); got != want {
				t.Fatalf("%s seed %d: poisoning released objects changed the run\n pooled:   %s\n poisoned: %s",
					suite.name, seed, want, got)
			}
			for i := 0; i < 64; i++ {
				for _, r := range []any{*poisoned.states.Get(), *poisoned.calls.Get(), *poisoned.ops.Get()} {
					if !reflect.ValueOf(r).IsZero() {
						t.Fatalf("%s seed %d: the slab handed out a used record after a poisoned run: %+v", suite.name, seed, r)
					}
				}
			}
		}
	}
}

// TestLiveRequestTable checks the in-flight list against a census of every
// request in each family. A request leaves the list (slot -1) when it
// terminates; when Run returns the list holds exactly the requests admitted
// and not yet terminated, each at its own slot; and Report.InFlight counts
// those of them the client still awaits.
func TestLiveRequestTable(t *testing.T) {
	for _, suite := range randomSuites {
		build := suite.build
		if build == nil {
			build = buildRandomTopology
		}
		for seed := int64(1); seed <= suite.seeds; seed++ {
			s := build(t, seed)
			if suite.with != nil {
				suite.with(t, s, seed)
			}
			census := make(map[job.ID]string)
			s.OnRequestDone = func(_ des.Time, req *job.Request) {
				if st := req.Owner.(*reqState); st.slot >= 0 || census[req.ID] != "" {
					t.Fatalf("%s seed %d: request %d terminated at slot %d, census %q",
						suite.name, seed, req.ID, st.slot, census[req.ID])
				}
				census[req.ID] = "terminated"
			}
			rep, err := s.Run(0, 300*des.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			awaited := 0
			for i, st := range s.live {
				if req := &st.Request; int(st.slot) != i || req.Failed || req.Done() || census[req.ID] != "" {
					t.Fatalf("%s seed %d: slot %d holds request %d (slot %d, failed %v, done %v, census %q)",
						suite.name, seed, i, req.ID, st.slot, req.Failed, req.Done(), census[req.ID])
				}
				census[st.ID] = "live"
				if !st.TimedOut {
					awaited++
				}
			}
			// Without a warmup every request admitted is an arrival, and
			// requests are numbered from 1 in admission order.
			for id := job.ID(1); id <= job.ID(rep.Arrivals); id++ {
				if census[id] == "" {
					t.Fatalf("%s seed %d: request %d neither in flight nor terminated", suite.name, seed, id)
				}
			}
			if rep.InFlight != awaited {
				t.Fatalf("%s seed %d: Report.InFlight %d, census %d", suite.name, seed, rep.InFlight, awaited)
			}
		}
	}
}
