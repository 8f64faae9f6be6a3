package workload

import (
	"math/rand"
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
		sess.SampleUser = func(id int) bool {
			sampled[id] = r.Float64() < sampleP
			return sampled[id]
		}
		ref := &refOrder{live: make(map[int]bool), retiring: make(map[int]bool)}
		var retiringLive []int // marked, not yet departed
		for step := 0; step < 400; step++ {
			switch op := r.Intn(10); {
			case op < 4: // a burst of arrivals
				for i, n := 0, 1+r.Intn(int(30/sampleP)); i < n; i++ {
					id := sess.nextID
					sess.spawn(0)
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
					sess.depart(id, sess.users[id])
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
