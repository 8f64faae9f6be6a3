package workload

import (
	"math/rand"
	randv2 "math/rand/v2"
	"slices"
	"testing"

	"uqsim/internal/des"
	"uqsim/internal/rng"
)

// refOrder is the spawn-order bookkeeping Sessions.order replaced, kept as
// the reference the run-length list must match: one slice entry per user
// (a simulated user's id, or -id-1 for a background user), background
// retirement by splicing the entry out, and the same tombstone sweep.
type refOrder struct {
	order    []int
	live     map[int]bool // simulated users not yet departed
	retiring map[int]bool
	bgUsers  int
	departed int
}

func (o *refOrder) spawn(id int, simulated bool) {
	if !simulated {
		o.bgUsers++
		o.order = append(o.order, -id-1)
		return
	}
	o.live[id] = true
	o.order = append(o.order, id)
}

// retire returns the simulated users it marked, in marking order.
func (o *refOrder) retire(n int) (marked []int) {
	for i := len(o.order) - 1; i >= 0 && n > 0; i-- {
		key := o.order[i]
		if key < 0 {
			if o.bgUsers > 0 {
				o.bgUsers--
				o.order = append(o.order[:i], o.order[i+1:]...)
				n--
			}
			continue
		}
		if !o.live[key] || o.retiring[key] {
			continue
		}
		o.retiring[key] = true
		marked = append(marked, key)
		n--
	}
	return marked
}

func (o *refOrder) depart(id int) {
	delete(o.live, id)
	o.departed++
	if o.departed > 64 && o.departed*2 > len(o.order) {
		o.compact()
	}
}

func (o *refOrder) compact() {
	kept := o.order[:0]
	for _, key := range o.order {
		if o.live[key] || key < 0 {
			kept = append(kept, key)
		}
	}
	o.order = kept
	o.departed = 0
}

// TestRunLengthOrderMatchesPerUserList drives Sessions and the per-user
// reference list through the same random scripts of spawns, retirements,
// departures and sweeps. After every step both must report the same
// populations, and every retirement must mark the same users in the same
// order: run-length coding the background users is invisible.
func TestRunLengthOrderMatchesPerUserList(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		r := rand.New(rand.NewSource(seed))
		sampleP := []float64{0.003, 0.05, 0.5, 1}[seed%4]
		sampled := make(map[int]bool)
		sess, err := NewSessions(des.New(), rng.NewSplitter(uint64(seed)).Child("sessions"),
			validSessionConfig(), func(des.Time, int, int) {})
		if err != nil {
			t.Fatal(err)
		}
		sess.SampleRun = perUser(func(id int) bool {
			sampled[id] = r.Float64() < sampleP
			return sampled[id]
		})
		ref := &refOrder{live: make(map[int]bool), retiring: make(map[int]bool)}
		var retiringLive []int // marked, not yet departed
		for step := 0; step < 400; step++ {
			switch op := r.Intn(10); {
			case op < 4: // a burst of arrivals
				first, n := sess.nextID, 1+r.Intn(int(30/sampleP))
				sess.spawn(0, n)
				for id := first; id < first+n; id++ {
					ref.spawn(id, sampled[id])
				}
			case op < 7: // a ramp-down, sometimes deeper than the population
				n := 1 + r.Intn(sess.ActiveUsers()/2+2)
				before := make(map[int]bool)
				for id, u := range sess.users {
					before[id] = u.retiring
				}
				sess.retire(n)
				var got []int
				for id, u := range sess.users {
					if u.retiring && !before[id] {
						got = append(got, id)
					}
				}
				// One retire call marks newest first: descending ids.
				slices.Sort(got)
				slices.Reverse(got)
				want := ref.retire(n)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: retire(%d) marked %v, reference %v", seed, step, n, got, want)
				}
				retiringLive = append(retiringLive, want...)
			case op < 9: // some retiring users reach a step boundary
				for i, n := 0, r.Intn(len(retiringLive)+1); i < n; i++ {
					j := r.Intn(len(retiringLive))
					id := retiringLive[j]
					retiringLive = slices.Delete(retiringLive, j, j+1)
					sess.depart(sess.users[id])
					ref.depart(id)
				}
			default:
				sess.compactOrder()
				ref.compact()
			}
			if sess.BackgroundUsers() != ref.bgUsers || sess.SimulatedUsers() != len(ref.live) ||
				sess.ActiveUsers() != ref.bgUsers+len(ref.live) {
				t.Fatalf("seed %d step %d: %d background + %d simulated users, reference %d + %d",
					seed, step, sess.BackgroundUsers(), sess.SimulatedUsers(), ref.bgUsers, len(ref.live))
			}
			// Every entry is the sentinel, a live simulated user or a tombstone.
			if len(sess.order) != 1+len(sess.users)+sess.departed {
				t.Fatalf("seed %d step %d: %d order entries for %d simulated users and %d tombstones",
					seed, step, len(sess.order), len(sess.users), sess.departed)
			}
			bg := 0
			for _, e := range sess.order {
				bg += e.bgAfter
			}
			if bg != sess.bgUsers {
				t.Fatalf("seed %d step %d: runs hold %d background users, counter says %d", seed, step, bg, sess.bgUsers)
			}
		}
	}
}

// perUser adapts a per-id predicate, the sampler hook's form before it
// decided runs, to SampleRun: it asks pred about ids in order from 0, once
// each, and ends a run at the first id pred samples.
func perUser(pred func(id int) bool) func(n int) int {
	next := 0
	return func(n int) int {
		run := 0
		for run < n && !pred(next+run) {
			run++
		}
		next += min(run+1, n)
		return run
	}
}

// bernoulliRun is a run-length sampler: each id is sampled with
// probability rate, one rand.Rand.Float64 draw per id on g.
func bernoulliRun(g *randv2.PCG, rate float64) func(n int) int {
	r := randv2.New(g)
	return func(n int) int {
		run := 0
		for run < n && r.Float64() >= rate {
			run++
		}
		return run
	}
}

// TestSampleRunMatchesPerUserSampler drives population control through a
// flash crowd twice from one seed: once with the run-length sampler, once
// with the per-id predicate it replaced. Both must sample the same ids in
// the same order, keep the same populations, and leave the generator at
// the same draw.
func TestSampleRunMatchesPerUserSampler(t *testing.T) {
	const users, crowd, rate = 100_000, 50_000, 0.004
	cfg := validSessionConfig()
	cfg.Users = users
	cfg.Crowds = []FlashCrowd{{At: 200 * des.Millisecond, Extra: crowd,
		RampUp: 300 * des.Millisecond, Hold: 200 * des.Millisecond, RampDown: 300 * des.Millisecond}}
	type side struct {
		eng     *des.Engine
		sess    *Sessions
		g       *randv2.PCG
		sampled []int
	}
	build := func(perID bool) *side {
		sd := &side{eng: des.New(), g: rng.NewSplitter(7).PCG("hybrid", "sample")}
		var err error
		sd.sess, err = NewSessions(sd.eng, rng.NewSplitter(7).Child("sessions"), cfg, func(now des.Time, user, _ int) {
			sd.eng.Post(now+des.Millisecond, func(t des.Time) { sd.sess.Done(t, user) })
		})
		if err != nil {
			t.Fatal(err)
		}
		hook := bernoulliRun(sd.g, rate)
		if perID {
			r := randv2.New(sd.g)
			hook = perUser(func(int) bool { return r.Float64() < rate })
		}
		sd.sess.SampleRun = func(n int) int {
			run := hook(n)
			if run < n {
				sd.sampled = append(sd.sampled, sd.sess.nextID+run)
			}
			return run
		}
		sd.sess.Start(0)
		return sd
	}
	runs, ids := build(false), build(true)
	for now := des.Time(0); now <= 1500*des.Millisecond; now += 50 * des.Millisecond {
		runs.eng.RunUntil(now)
		ids.eng.RunUntil(now)
		if !slices.Equal(runs.sampled, ids.sampled) {
			t.Fatalf("at %v: run-length sampler chose %d ids, per-id sampler %d", now, len(runs.sampled), len(ids.sampled))
		}
		if runs.sess.SimulatedUsers() != ids.sess.SimulatedUsers() || runs.sess.BackgroundUsers() != ids.sess.BackgroundUsers() {
			t.Fatalf("at %v: %d simulated + %d background users, per-id sampler %d + %d", now,
				runs.sess.SimulatedUsers(), runs.sess.BackgroundUsers(), ids.sess.SimulatedUsers(), ids.sess.BackgroundUsers())
		}
	}
	if len(runs.sampled) < 300 || runs.sess.nextID < users+crowd {
		t.Fatalf("%d ids sampled of %d spawned; the crowd should spawn %d users and sample about 0.4 %%",
			len(runs.sampled), runs.sess.nextID, users+crowd)
	}
	if a, b := runs.g.Uint64(), ids.g.Uint64(); a != b {
		t.Fatalf("generators parted: next draws %#x and %#x", a, b)
	}
}

// refPopulation is the population controller Sessions replaced, kept as
// the reference that the one-run spawn and the resuming retirement must
// match: one spawn and one list entry per user, and a retirement that
// walks the whole list newest first with a map lookup per entry.
type refPopulation struct {
	cfg           SessionConfig
	sample        func(id int) bool
	order         *refOrder
	nextID        int
	pendingRetire int
}

func (p *refPopulation) adjust(now des.Time) {
	target := p.cfg.PopulationAt(now)
	cur := p.order.bgUsers + len(p.order.live) - p.pendingRetire
	for ; cur < target; cur++ {
		id := p.nextID
		p.nextID++
		p.order.spawn(id, p.sample(id))
	}
	if cur > target {
		p.pendingRetire += len(p.order.retire(cur - target))
	}
}

func (p *refPopulation) depart(id int) {
	if p.order.retiring[id] {
		p.pendingRetire--
	}
	p.order.depart(id)
}

// randomEnvelope draws a population envelope: a base population, up to
// three phases with ramps, up to three flash crowds that may overlap each
// other and the phases, and a poll tick.
func randomEnvelope(r *rand.Rand) SessionConfig {
	cfg := validSessionConfig()
	cfg.Users = r.Intn(300)
	at := des.Time(0)
	for i, n := 0, r.Intn(4); i < n; i++ {
		at += des.Time(r.Intn(60)) * des.Millisecond
		ph := PopPhase{At: at, Users: r.Intn(400), Ramp: des.Time(r.Intn(40)) * des.Millisecond}
		cfg.Phases = append(cfg.Phases, ph)
		at += ph.Ramp
	}
	if cfg.Users == 0 && len(cfg.Phases) == 0 {
		cfg.Users = 1
	}
	for i, n := 0, r.Intn(4); i < n; i++ {
		cfg.Crowds = append(cfg.Crowds, FlashCrowd{
			At:       des.Time(r.Intn(300)) * des.Millisecond,
			Extra:    1 + r.Intn(300),
			RampUp:   des.Time(r.Intn(60)) * des.Millisecond,
			Hold:     des.Time(r.Intn(60)) * des.Millisecond,
			RampDown: des.Time(r.Intn(60)) * des.Millisecond,
		})
	}
	cfg.PopTick = des.Time(1+r.Intn(20)) * des.Millisecond
	return cfg
}

// FuzzSessionsPopulation drives Sessions and the per-user reference
// controller through the same random envelope, sampler answers, request
// completions and departures, one poll tick at a time. After every tick
// both must have asked the sampler about the same ids in the same order,
// hold the same background, simulated and pending-retirement counts, and
// mark the same users as retiring.
func FuzzSessionsPopulation(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(seed), uint16(40+seed*20))
	}
	f.Fuzz(func(t *testing.T, seed int64, sampler uint8, ticks uint16) {
		r := rand.New(rand.NewSource(seed))
		cfg := randomEnvelope(r)
		eng := des.New()
		var pending []int // users with a request outstanding
		sess, err := NewSessions(eng, rng.NewSplitter(uint64(seed)).Child("sessions"), cfg,
			func(_ des.Time, user, _ int) { pending = append(pending, user) })
		if err != nil {
			t.Fatal(err)
		}
		// The answer for an id depends on the id alone, so a controller
		// that asks about other ids, or in another order, shows in the
		// call sequences and not only in the counts.
		p := []float64{0, 0.01, 0.1, 0.5, 1, -1}[int(sampler)%6]
		answer := func(id int) bool {
			x := uint64(id)*0x9e3779b97f4a7c15 ^ uint64(seed)
			x ^= x >> 31
			x *= 0xbf58476d1ce4e5b9
			return float64(x>>11)/(1<<53) < p
		}
		var got, want []int
		ref := &refPopulation{cfg: cfg, order: &refOrder{live: make(map[int]bool), retiring: make(map[int]bool)}}
		ref.sample = func(id int) bool { return true }
		if p >= 0 {
			sess.SampleRun = perUser(func(id int) bool { got = append(got, id); return answer(id) })
			ref.sample = func(id int) bool { want = append(want, id); return answer(id) }
		}
		for k := 0; k <= int(ticks%400); k++ {
			now := des.Time(k) * cfg.PopTick
			// Users wake, issue and, when retiring, depart at the wake;
			// then some outstanding requests complete.
			eng.RunUntil(now)
			kept := pending[:0]
			for _, user := range pending {
				if r.Intn(2) == 0 {
					kept = append(kept, user)
				} else {
					sess.Done(now, user)
				}
			}
			pending = kept
			var departed []int
			for id := range ref.order.live {
				if _, ok := sess.users[id]; !ok {
					departed = append(departed, id)
				}
			}
			slices.Sort(departed)
			for _, id := range departed {
				if !ref.order.retiring[id] {
					t.Fatalf("tick %d: user %d departed, but the reference never retired it", k, id)
				}
				ref.depart(id)
			}
			sess.adjust(now)
			ref.adjust(now)
			if !slices.Equal(got, want) {
				t.Fatalf("tick %d: the sampler was asked about %d ids, reference %d (first ids %v vs %v)",
					k, len(got), len(want), got[:min(len(got), 8)], want[:min(len(want), 8)])
			}
			if sess.BackgroundUsers() != ref.order.bgUsers || sess.SimulatedUsers() != len(ref.order.live) ||
				sess.pendingRetire != ref.pendingRetire {
				t.Fatalf("tick %d: %d background, %d simulated, %d pending retirements; reference %d, %d, %d",
					k, sess.BackgroundUsers(), sess.SimulatedUsers(), sess.pendingRetire,
					ref.order.bgUsers, len(ref.order.live), ref.pendingRetire)
			}
			for id, u := range sess.users {
				if u.retiring != ref.order.retiring[id] {
					t.Fatalf("tick %d: user %d retiring=%v, reference %v", k, id, u.retiring, ref.order.retiring[id])
				}
			}
		}
	})
}

// TestSessionsRetireWorkPerUserRetired: at the hybrid_1m benchmark cell's
// population shape (a million users, 0.4 % simulated, a crowd of half a
// million that ramps up over 2 s, holds 2 s and ramps down over 2 s,
// polled every 10 ms), retirement visits a number of order entries
// bounded by the simulated users it retires plus two per call. A walk
// from the newest entry every call re-visits each retiree still waiting
// for its step boundary (one think time, 1 s here): about 200,000 entries.
func TestSessionsRetireWorkPerUserRetired(t *testing.T) {
	const users, crowd, foreground = 1_000_000, 500_000, 4000
	cfg := validSessionConfig()
	cfg.Users = users
	cfg.Crowds = []FlashCrowd{{At: 4 * des.Second, Extra: crowd,
		RampUp: 2 * des.Second, Hold: 2 * des.Second, RampDown: 2 * des.Second}}
	sess, err := NewSessions(des.New(), rng.NewSplitter(7).Child("sessions"), cfg, func(des.Time, int, int) {})
	if err != nil {
		t.Fatal(err)
	}
	sess.SampleRun = bernoulliRun(rng.NewSplitter(7).PCG("hybrid", "sample"), float64(foreground)/users)
	type retiree struct {
		departAt des.Time
		id       int
	}
	var waiting []retiree
	calls, retired := 0, 0
	for now := des.Time(0); now <= 12*des.Second; now += 10 * des.Millisecond {
		for len(waiting) > 0 && waiting[0].departAt <= now {
			sess.depart(sess.users[waiting[0].id])
			waiting = waiting[1:]
		}
		before, visits := sess.pendingRetire, sess.retireVisits
		sess.adjust(now)
		if sess.retireVisits != visits {
			calls++
		}
		if sess.pendingRetire == before {
			continue
		}
		var marked []int
		for id, u := range sess.users {
			if u.retiring && !slices.ContainsFunc(waiting, func(w retiree) bool { return w.id == id }) {
				marked = append(marked, id)
			}
		}
		slices.Sort(marked)
		for _, id := range marked {
			waiting = append(waiting, retiree{now + des.Second, id})
		}
		retired += len(marked)
	}
	if calls != 200 || retired == 0 {
		t.Fatalf("%d retire calls retired %d simulated users; the shape should make 200 calls", calls, retired)
	}
	t.Logf("%d retire calls, %d simulated users retired, %d entries visited", calls, retired, sess.retireVisits)
	if sess.retireVisits > retired+2*calls {
		t.Fatalf("retiring %d simulated users in %d calls visited %d order entries", retired, calls, sess.retireVisits)
	}
}
