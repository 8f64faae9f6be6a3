package job

import (
	"reflect"
	"testing"

	"uqsim/internal/des"
)

func TestFactoryIDsUnique(t *testing.T) {
	f := NewFactory()
	seen := make(map[ID]bool)
	for i := 0; i < 100; i++ {
		r := f.NewRequest(0)
		j := f.NewJob(r)
		if r.ID == 0 || j.ID == 0 {
			t.Fatal("IDs must start at 1")
		}
		if seen[r.ID] {
			t.Fatal("duplicate request ID")
		}
		seen[r.ID] = true
	}
}

func TestRequestLifecycle(t *testing.T) {
	f := NewFactory()
	r := f.NewRequest(10 * des.Millisecond)
	if r.Done() {
		t.Fatal("new request should not be done")
	}
	if r.Latency() != 0 {
		t.Fatal("in-flight latency should be 0")
	}
	r.Finish = 15 * des.Millisecond
	if !r.Done() {
		t.Fatal("should be done")
	}
	if r.Latency() != 5*des.Millisecond {
		t.Fatalf("latency = %v", r.Latency())
	}
}

func TestRequestTierLatency(t *testing.T) {
	const nginx, memcached, idle, netproc = 0, 1, 2, 3
	f := NewFactory()
	r := f.NewRequest(0)
	r.AddTierLatency(nginx, 2*des.Millisecond)
	r.AddTierLatency(nginx, 1*des.Millisecond)
	r.AddTierLatency(memcached, 500*des.Microsecond)
	r.AddTierLatency(netproc, 0)
	if d, ok := r.TierLatency(nginx); !ok || d != 3*des.Millisecond {
		t.Fatalf("nginx tier = %v (visited %v)", d, ok)
	}
	if d, ok := r.TierLatency(memcached); !ok || d != 500*des.Microsecond {
		t.Fatalf("memcached tier = %v (visited %v)", d, ok)
	}
	// A zero residence is still a visit; a tier never visited is none,
	// inside the slice or past its end.
	if d, ok := r.TierLatency(netproc); !ok || d != 0 {
		t.Fatalf("netproc tier = %v (visited %v), want a zero-residence visit", d, ok)
	}
	for _, tier := range []int{idle, 7, -1} {
		if _, ok := r.TierLatency(tier); ok {
			t.Fatalf("tier %d reports a visit", tier)
		}
	}
}

func TestNewJobInheritsRequestAttrs(t *testing.T) {
	f := NewFactory()
	r := f.NewRequest(0)
	r.SizeKB = 4.5
	r.Conn = 17
	j := f.NewJob(r)
	if j.SizeKB != 4.5 || j.Conn != 17 {
		t.Fatal("job should inherit request size and connection")
	}
	if j.Req != r {
		t.Fatal("job should reference its request")
	}
}

func TestCloneSharesRequestFreshIdentity(t *testing.T) {
	f := NewFactory()
	r := f.NewRequest(0)
	j := f.NewJob(r)
	j.Conn = 3
	j.SizeKB = 2
	j.StageIdx = 5
	c := f.Clone(j)
	if c.ID == j.ID {
		t.Fatal("clone must have a new ID")
	}
	if c.Req != r {
		t.Fatal("clone must share the request")
	}
	if c.Conn != 3 || c.SizeKB != 2 {
		t.Fatal("clone should copy conn and size")
	}
	if c.StageIdx != 0 {
		t.Fatal("clone progress must reset")
	}
}

func TestNewJobNilRequest(t *testing.T) {
	f := NewFactory()
	j := f.NewJob(nil)
	if j.Req != nil || j.ID == 0 {
		t.Fatal("nil-request job should work for substrate tests")
	}
}

// TestFactoryRecyclesCleanStorage: a freed job, or request storage readied
// again by InitRequest, comes back with a fresh ID and no trace of its
// previous life — whatever was written to it, before or after the free —
// but the request's Owner, which goes with the storage.
func TestFactoryRecyclesCleanStorage(t *testing.T) {
	f := NewFactory()
	r := f.NewRequest(5)
	r.AddTierLatency(1, des.Millisecond)
	j := f.NewJob(r)
	if r.LiveJobs() != 1 {
		t.Fatalf("live jobs = %d, want 1", r.LiveJobs())
	}
	f.FreeJob(j)
	if r.LiveJobs() != 0 {
		t.Fatalf("live jobs after free = %d, want 0", r.LiveJobs())
	}
	tiers := r.tiers

	// Dirty both while they sit on the freelists.
	*j = Job{ID: 99, Req: r, Outcome: OutcomeCanceled, StageIdx: 3, Started: 7, Dest: f, DestPath: 2}
	r.TimedOut, r.Failed, r.Outcome, r.Finish, r.Attempt = true, true, OutcomeDeadline, 9, 4
	r.Owner, r.Deadline, r.LeavesRemaining = f, 11, 6

	r2 := r
	f.InitRequest(r2, 20)
	if _, ok := r2.TierLatency(1); ok {
		t.Fatalf("recycled request carries tier latency %v", r2.tiers)
	}
	if want := (Request{ID: 2, Arrival: 20, Owner: f, tiers: tiers}); !reflect.DeepEqual(*r2, want) {
		t.Fatalf("recycled request = %+v, want %+v", *r2, want)
	}
	r2.AddTierLatency(0, des.Microsecond)
	if !tiers[0].visited {
		t.Fatal("the tier-latency storage should be kept, not remade")
	}

	r2.SizeKB, r2.Conn = 1.5, 8
	j2 := f.NewJob(r2)
	if j2 != j {
		t.Fatal("freed job storage should be reused")
	}
	if want := (Job{ID: 2, Req: r2, SizeKB: 1.5, Conn: 8}); *j2 != want {
		t.Fatalf("recycled job = %+v, want %+v", *j2, want)
	}
	if f.NewJob(nil) == j {
		t.Fatal("an empty freelist must allocate fresh storage")
	}
}
