package workload

import (
	"fmt"
	"strings"
	"testing"

	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/rng"
)

func validSessionConfig() SessionConfig {
	return SessionConfig{
		Users: 4,
		Journeys: []Journey{
			{Name: "browse", Weight: 3, Steps: []SessionStep{
				{Tree: 0, Think: dist.NewExponential(5e6)},
				{Tree: 0, Think: dist.NewExponential(5e6)},
			}},
			{Name: "buy", Weight: 1, Steps: []SessionStep{
				{Tree: 0, Think: dist.NewExponential(10e6)},
			}},
		},
	}
}

func TestSessionConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*SessionConfig)
		want string // substring of the error; "" means valid
	}{
		{"valid", func(c *SessionConfig) {}, ""},
		{"negative users", func(c *SessionConfig) { c.Users = -1 }, "users must be >= 0"},
		{"zero users no phases", func(c *SessionConfig) { c.Users = 0 }, "users >= 1 or a population phase"},
		{"zero users with phase", func(c *SessionConfig) {
			c.Users = 0
			c.Phases = []PopPhase{{At: des.Second, Users: 10}}
		}, ""},
		{"no journeys", func(c *SessionConfig) { c.Journeys = nil }, "at least one journey"},
		{"negative weight", func(c *SessionConfig) { c.Journeys[0].Weight = -1 }, "weight must be finite"},
		{"all zero weights", func(c *SessionConfig) {
			c.Journeys[0].Weight = 0
			c.Journeys[1].Weight = 0
		}, "at least one must be positive"},
		{"empty steps", func(c *SessionConfig) { c.Journeys[1].Steps = nil }, "has no steps"},
		{"negative tree", func(c *SessionConfig) { c.Journeys[0].Steps[0].Tree = -2 }, "negative tree index"},
		{"unsorted phases", func(c *SessionConfig) {
			c.Phases = []PopPhase{{At: 2 * des.Second, Users: 5}, {At: des.Second, Users: 9}}
		}, "sorted by time"},
		{"negative phase target", func(c *SessionConfig) {
			c.Phases = []PopPhase{{At: des.Second, Users: -3}}
		}, "target must be >= 0"},
		{"negative ramp", func(c *SessionConfig) {
			c.Phases = []PopPhase{{At: des.Second, Users: 3, Ramp: -des.Second}}
		}, "times must be >= 0"},
		{"overlapping ramp", func(c *SessionConfig) {
			c.Phases = []PopPhase{
				{At: des.Second, Users: 10, Ramp: 3 * des.Second},
				{At: 2 * des.Second, Users: 20},
			}
		}, "overlapping phase"},
		{"ramp ending at next start", func(c *SessionConfig) {
			c.Phases = []PopPhase{
				{At: des.Second, Users: 10, Ramp: des.Second},
				{At: 2 * des.Second, Users: 20},
			}
		}, ""},
		{"flash crowd zero extra", func(c *SessionConfig) {
			c.Crowds = []FlashCrowd{{At: des.Second, Extra: 0}}
		}, "extra users must be positive"},
		{"flash crowd negative ramp", func(c *SessionConfig) {
			c.Crowds = []FlashCrowd{{At: des.Second, Extra: 5, RampUp: -1}}
		}, "times must be >= 0"},
		{"on/off zero mean", func(c *SessionConfig) {
			c.OnOff = &OnOff{MeanOn: 0, MeanOff: des.Second}
		}, "mean_on and mean_off must be positive"},
		{"negative pop tick", func(c *SessionConfig) { c.PopTick = -1 }, "pop_tick must be >= 0"},
	}
	for _, c := range cases {
		cfg := validSessionConfig()
		c.mut(&cfg)
		err := cfg.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
}

func TestPopulationEnvelope(t *testing.T) {
	cfg := SessionConfig{
		Users:    100,
		Journeys: []Journey{{Weight: 1, Steps: []SessionStep{{Tree: 0}}}},
		Phases: []PopPhase{
			{At: 10 * des.Second, Users: 200, Ramp: 10 * des.Second},
			{At: 30 * des.Second, Users: 50},
		},
		Crowds: []FlashCrowd{
			{At: 5 * des.Second, Extra: 40, RampUp: 2 * des.Second, Hold: des.Second, RampDown: 2 * des.Second},
		},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at   des.Time
		want int
	}{
		{0, 100},
		{5 * des.Second, 100},                 // crowd ramp just starting
		{6 * des.Second, 120},                 // crowd halfway up
		{7*des.Second + des.Millisecond, 140}, // crowd holding
		{9 * des.Second, 120},                 // crowd halfway down
		{15 * des.Second, 150},                // phase ramp halfway 100→200
		{25 * des.Second, 200},                // phase plateau
		{31 * des.Second, 50},                 // step down
	}
	for _, c := range cases {
		if got := cfg.PopulationAt(c.at); got != c.want {
			t.Errorf("PopulationAt(%v) = %d, want %d", c.at, got, c.want)
		}
	}
}

func TestSessionsIssueAndAdvance(t *testing.T) {
	eng := des.New()
	split := rng.NewSplitter(42)
	cfg := validSessionConfig()

	type issue struct {
		user, tree int
	}
	var issues []issue
	var sess *Sessions
	emit := func(now des.Time, user, tree int) {
		issues = append(issues, issue{user, tree})
		// Complete instantly after 1ms "service".
		eng.Post(now+des.Millisecond, func(t des.Time) { sess.Done(t, user) })
	}
	var err error
	sess, err = NewSessions(eng, split.Child("sessions"), cfg, emit)
	if err != nil {
		t.Fatal(err)
	}
	sess.Start(0)
	eng.RunUntil(des.Second)

	if sess.ActiveUsers() != 4 || sess.SimulatedUsers() != 4 || sess.BackgroundUsers() != 0 {
		t.Fatalf("population: active=%d sim=%d bg=%d, want 4/4/0",
			sess.ActiveUsers(), sess.SimulatedUsers(), sess.BackgroundUsers())
	}
	if len(issues) < 40 {
		t.Fatalf("expected a steady request flow over 1s with ~5-10ms think, got %d issues", len(issues))
	}
	perUser := map[int]int{}
	for _, is := range issues {
		perUser[is.user]++
		if is.tree != 0 {
			t.Fatalf("unexpected tree %d", is.tree)
		}
	}
	if len(perUser) != 4 {
		t.Fatalf("want 4 distinct users, got %d", len(perUser))
	}
}

// TestSessionsDeterminism pins that two runs with the same seed issue the
// identical request sequence and a different seed diverges.
func TestSessionsDeterminism(t *testing.T) {
	run := func(seed uint64) []des.Time {
		eng := des.New()
		var times []des.Time
		var sess *Sessions
		emit := func(now des.Time, user, tree int) {
			times = append(times, now)
			eng.Post(now+des.Millisecond, func(t des.Time) { sess.Done(t, user) })
		}
		sess, err := NewSessions(eng, rng.NewSplitter(seed).Child("sessions"), validSessionConfig(), emit)
		if err != nil {
			t.Fatal(err)
		}
		sess.Start(0)
		eng.RunUntil(des.Second)
		return times
	}
	a, b := run(7), run(7)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("same seed lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at issue %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical issue sequences")
	}
}

// TestSessionsSampling: unsampled users never emit but count toward the
// population; sampled users do. The sampler decides each spawned id once.
func TestSessionsSampling(t *testing.T) {
	eng := des.New()
	cfg := validSessionConfig()
	cfg.Users = 10
	var sess *Sessions
	emit := func(now des.Time, user, tree int) {
		eng.Post(now+des.Millisecond, func(t des.Time) { sess.Done(t, user) })
	}
	sess, err := NewSessions(eng, rng.NewSplitter(1).Child("sessions"), cfg, emit)
	if err != nil {
		t.Fatal(err)
	}
	sampled := map[int]bool{}
	sess.SampleRun = perUser(func(user int) bool {
		s := user%3 == 0 // 4 of ids 0..9
		sampled[user] = s
		return s
	})
	sess.Start(0)
	eng.RunUntil(100 * des.Millisecond)
	if sess.ActiveUsers() != 10 {
		t.Fatalf("active = %d, want 10", sess.ActiveUsers())
	}
	if sess.SimulatedUsers() != 4 || sess.BackgroundUsers() != 6 {
		t.Fatalf("sim=%d bg=%d, want 4/6", sess.SimulatedUsers(), sess.BackgroundUsers())
	}
	if len(sampled) != 10 {
		t.Fatalf("the sampler decided %d ids, want 10", len(sampled))
	}
}

// TestSessionsPopulationControl: a flash crowd grows the live population
// and the ramp-down shrinks it back.
func TestSessionsPopulationControl(t *testing.T) {
	eng := des.New()
	cfg := validSessionConfig()
	cfg.Users = 5
	cfg.Crowds = []FlashCrowd{{
		At: 100 * des.Millisecond, Extra: 20,
		RampUp: 50 * des.Millisecond, Hold: 100 * des.Millisecond, RampDown: 50 * des.Millisecond,
	}}
	var sess *Sessions
	emit := func(now des.Time, user, tree int) {
		eng.Post(now+des.Millisecond, func(t des.Time) { sess.Done(t, user) })
	}
	sess, err := NewSessions(eng, rng.NewSplitter(3).Child("sessions"), cfg, emit)
	if err != nil {
		t.Fatal(err)
	}
	sess.Start(0)
	eng.RunUntil(200 * des.Millisecond) // mid-hold
	if got := sess.ActiveUsers(); got != 25 {
		t.Fatalf("mid-crowd population %d, want 25", got)
	}
	eng.RunUntil(des.Second) // long after ramp-down; retirees need a step boundary
	if got := sess.ActiveUsers(); got != 5 {
		t.Fatalf("post-crowd population %d, want 5", got)
	}
}

// TestSessionsRampDownNoChurn: a ramp-down retires exactly the excess
// users. Retirees linger until their next step boundary — with think times
// longer than the population poll tick that spans many ticks — and must
// not be re-counted as excess, which would cascade into retiring the whole
// population and respawning fresh users (visible as user ids beyond the
// initial cohort).
func TestSessionsRampDownNoChurn(t *testing.T) {
	eng := des.New()
	cfg := SessionConfig{
		Users: 20,
		Journeys: []Journey{{Name: "browse", Weight: 1, Steps: []SessionStep{
			{Tree: 0, Think: dist.NewExponential(50e6)}, // 50ms mean ≫ 10ms pop tick
		}}},
		Phases: []PopPhase{{At: 100 * des.Millisecond, Users: 10}},
	}
	maxUser := -1
	var sess *Sessions
	emit := func(now des.Time, user, tree int) {
		if user > maxUser {
			maxUser = user
		}
		eng.Post(now+des.Millisecond, func(t des.Time) { sess.Done(t, user) })
	}
	sess, err := NewSessions(eng, rng.NewSplitter(5).Child("sessions"), cfg, emit)
	if err != nil {
		t.Fatal(err)
	}
	sess.Start(0)
	eng.RunUntil(des.Second)
	if got := sess.ActiveUsers(); got != 10 {
		t.Fatalf("post-ramp-down population %d, want 10", got)
	}
	if maxUser >= 20 {
		t.Fatalf("saw user id %d: ramp-down churned the population instead of retiring 10 users", maxUser)
	}
}

// TestJourneyAtBoundaries: zero-weight journeys are unreachable and a draw
// landing exactly on a cumulative boundary belongs to the next interval.
func TestJourneyAtBoundaries(t *testing.T) {
	build := func(weights ...float64) *Sessions {
		cfg := SessionConfig{Users: 1}
		for i, w := range weights {
			cfg.Journeys = append(cfg.Journeys, Journey{
				Name: fmt.Sprint("j", i), Weight: w, Steps: []SessionStep{{Tree: 0}},
			})
		}
		s, err := NewSessions(des.New(), rng.NewSplitter(1).Child("sessions"), cfg,
			func(des.Time, int, int) {})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	zeroFirst := build(0, 1)
	if got := zeroFirst.journeyAt(0); got != 1 {
		t.Errorf("journeyAt(0) with weights [0,1] = %d, want 1 (zero-weight journey unreachable)", got)
	}
	zeroMid := build(1, 0, 1)
	for x, want := range map[float64]int{0: 0, 0.5: 0, 1: 2, 1.5: 2} {
		if got := zeroMid.journeyAt(x); got != want {
			t.Errorf("journeyAt(%v) with weights [1,0,1] = %d, want %d", x, got, want)
		}
	}
}

// TestSessionsZeroThinkNoLivelock: a zero-think journey whose requests
// complete at the same virtual instant (instant shed) must not wedge the
// event loop at one timestamp.
func TestSessionsZeroThinkNoLivelock(t *testing.T) {
	eng := des.New()
	cfg := SessionConfig{
		Users:    2,
		Journeys: []Journey{{Weight: 1, Steps: []SessionStep{{Tree: 0}}}}, // nil Think
	}
	var sess *Sessions
	n := 0
	emit := func(now des.Time, user, tree int) {
		n++
		sess.Done(now, user) // complete at the same instant, like a shed
	}
	sess, err := NewSessions(eng, rng.NewSplitter(9).Child("sessions"), cfg, emit)
	if err != nil {
		t.Fatal(err)
	}
	sess.Start(0)
	eng.RunUntil(10 * des.Millisecond) // would never return on livelock
	if n == 0 || n > 1000 {
		t.Fatalf("issue count %d, want a bounded re-issue cadence", n)
	}
}

// TestSessionsOnOff: bursty users issue markedly fewer requests than
// always-on users with the same think time.
func TestSessionsOnOff(t *testing.T) {
	count := func(onoff *OnOff) int {
		eng := des.New()
		cfg := validSessionConfig()
		cfg.OnOff = onoff
		n := 0
		var sess *Sessions
		emit := func(now des.Time, user, tree int) {
			n++
			eng.Post(now+des.Millisecond, func(t des.Time) { sess.Done(t, user) })
		}
		sess, err := NewSessions(eng, rng.NewSplitter(11).Child("sessions"), cfg, emit)
		if err != nil {
			t.Fatal(err)
		}
		sess.Start(0)
		eng.RunUntil(2 * des.Second)
		return n
	}
	always := count(nil)
	bursty := count(&OnOff{MeanOn: 50 * des.Millisecond, MeanOff: 150 * des.Millisecond})
	if bursty >= always*3/4 {
		t.Fatalf("on/off users issued %d vs always-on %d; want a clear reduction", bursty, always)
	}
}

// TestSessionsDepartureWorkBounded: departing a foreground user must not
// scan the spawn-order list, and the list must not grow with the
// background population. At the hybrid_1m benchmark cell's shape (a
// million users, 400 of them simulated) the list holds one entry per
// simulated user, and retiring them all sweeps a bounded number of
// entries in total, counted in entries visited rather than wall time.
func TestSessionsDepartureWorkBounded(t *testing.T) {
	const foreground, users = 400, 1_000_000
	eng := des.New()
	cfg := validSessionConfig()
	cfg.Users = users
	var sess *Sessions
	emit := func(now des.Time, user, tree int) {
		eng.Post(now+des.Millisecond, func(t des.Time) { sess.Done(t, user) })
	}
	sess, err := NewSessions(eng, rng.NewSplitter(9).Child("sessions"), cfg, emit)
	if err != nil {
		t.Fatal(err)
	}
	// Foreground users are spread through the spawn order, one in 2500.
	sess.SampleRun = perUser(func(id int) bool { return id%(users/foreground) == 0 })
	sess.Start(0)
	eng.RunUntil(50 * des.Millisecond)
	if got := sess.SimulatedUsers(); got != foreground {
		t.Fatalf("%d simulated users, want %d", got, foreground)
	}
	if got := sess.BackgroundUsers(); got != users-foreground {
		t.Fatalf("%d background users, want %d", got, users-foreground)
	}
	if len(sess.order) != foreground+1 {
		t.Fatalf("order list holds %d entries for %d simulated users; background users must be run-length coded",
			len(sess.order), foreground)
	}
	sess.Stop()
	for eng.Step() { // every user departs at its next step boundary
	}
	if got := sess.SimulatedUsers(); got != 0 {
		t.Fatalf("%d simulated users left after Stop and drain", got)
	}
	// A sweep runs once tombstones are the larger half of the list, so it
	// visits fewer than two entries per departure since the last one: that
	// is the O(1) amortised budget. The old tail scan visited about half a
	// million entries per departure.
	if sess.orderSwept > 2*foreground {
		t.Fatalf("retiring %d users swept %d order entries", foreground, sess.orderSwept)
	}
}

// TestSessionsRetireNewestFirstAcrossTombstones: departed users leave
// tombstones in the spawn order until a sweep; retirement must keep
// picking the newest live users through them and after the sweep.
func TestSessionsRetireNewestFirstAcrossTombstones(t *testing.T) {
	eng := des.New()
	cfg := validSessionConfig()
	cfg.Users = 300
	var sess *Sessions
	emit := func(now des.Time, user, tree int) {
		eng.Post(now+des.Millisecond, func(t des.Time) { sess.Done(t, user) })
	}
	sess, err := NewSessions(eng, rng.NewSplitter(4).Child("sessions"), cfg, emit)
	if err != nil {
		t.Fatal(err)
	}
	sess.Start(0)
	// Three rounds: retire the newest 80, let them depart, check who is
	// left. The second round crosses the sweep threshold.
	live := 300
	for round := 0; round < 3; round++ {
		sess.retire(80)
		live -= 80
		eng.RunUntil(eng.Now() + des.Second)
		if got := sess.SimulatedUsers(); got != live {
			t.Fatalf("round %d: %d users live, want %d", round, got, live)
		}
		for id := 0; id < 300; id++ {
			if _, ok := sess.users[id]; ok != (id < live) {
				t.Fatalf("round %d: user %d live=%v; retirement must take the newest first", round, id, ok)
			}
		}
	}
	if sess.orderSwept == 0 || len(sess.order) >= 300 {
		t.Fatalf("240 of 300 departed but the order list was never swept (len %d)", len(sess.order))
	}
}
