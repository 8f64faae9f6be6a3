package queueing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"uqsim/internal/job"
)

func mkJob(f *job.Factory, conn int) *job.Job {
	j := f.NewJob(nil)
	j.Conn = conn
	return j
}

func ids(js []*job.Job) []job.ID {
	out := make([]job.ID, len(js))
	for i, j := range js {
		out[i] = j.ID
	}
	return out
}

func TestFIFOOrder(t *testing.T) {
	f := job.NewFactory()
	q := NewFIFO()
	var want []job.ID
	for i := 0; i < 10; i++ {
		j := mkJob(f, 0)
		want = append(want, j.ID)
		q.Push(j)
	}
	if q.Len() != 10 {
		t.Fatalf("len = %d", q.Len())
	}
	if q.Peek().ID != want[0] {
		t.Fatal("peek should show oldest")
	}
	got := ids(popBatch(q, 0))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order mismatch: %v vs %v", got, want)
		}
	}
	if q.Len() != 0 || q.Peek() != nil || popBatch(q, 1) != nil {
		t.Fatal("queue should be empty")
	}
}

func TestFIFOBatchBound(t *testing.T) {
	f := job.NewFactory()
	q := NewFIFO()
	for i := 0; i < 5; i++ {
		q.Push(mkJob(f, 0))
	}
	if got := len(popBatch(q, 2)); got != 2 {
		t.Fatalf("batch = %d, want 2", got)
	}
	if q.Len() != 3 {
		t.Fatalf("remaining = %d", q.Len())
	}
	if got := len(popBatch(q, 10)); got != 3 {
		t.Fatalf("batch = %d, want 3", got)
	}
}

func TestFIFOPop(t *testing.T) {
	f := job.NewFactory()
	q := NewFIFO()
	if q.Pop() != nil {
		t.Fatal("pop on empty should be nil")
	}
	a := mkJob(f, 0)
	q.Push(a)
	if q.Pop() != a {
		t.Fatal("pop should return pushed job")
	}
}

func TestFIFOPopTail(t *testing.T) {
	f := job.NewFactory()
	q := NewFIFO()
	if q.PopTail() != nil {
		t.Fatal("pop-tail on empty should be nil")
	}
	a, b, c := mkJob(f, 0), mkJob(f, 0), mkJob(f, 0)
	q.Push(a)
	q.Push(b)
	q.Push(c)
	if q.PopTail() != c {
		t.Fatal("pop-tail should return newest")
	}
	if q.Peek() != a {
		t.Fatal("peek should still show oldest")
	}
	// Mixing head and tail pops must preserve the remaining order.
	if q.Pop() != a || q.PopTail() != b {
		t.Fatal("mixed pops out of order")
	}
	if q.Len() != 0 || q.PopTail() != nil {
		t.Fatal("queue should be empty")
	}
	// PopTail after head pops (head > 0) must not resurrect popped jobs.
	for i := 0; i < 4; i++ {
		q.Push(mkJob(f, 0))
	}
	q.Pop()
	q.Pop()
	last := mkJob(f, 0)
	q.Push(last)
	if q.PopTail() != last || q.Len() != 2 {
		t.Fatal("pop-tail interacted badly with the head index")
	}
}

func TestFIFOCompaction(t *testing.T) {
	f := job.NewFactory()
	q := NewFIFO()
	// Push/pop many times to exercise the head-compaction path.
	for round := 0; round < 100; round++ {
		for i := 0; i < 10; i++ {
			q.Push(mkJob(f, 0))
		}
		for i := 0; i < 10; i++ {
			if q.Pop() == nil {
				t.Fatal("unexpected empty")
			}
		}
	}
	if q.Len() != 0 {
		t.Fatal("should be empty")
	}
}

func TestEpollTakesFromEachActiveConnection(t *testing.T) {
	f := job.NewFactory()
	q := NewEpoll(2)
	// conn 1: 3 jobs; conn 2: 1 job; conn 3: 2 jobs
	c1 := []*job.Job{mkJob(f, 1), mkJob(f, 1), mkJob(f, 1)}
	c2 := []*job.Job{mkJob(f, 2)}
	c3 := []*job.Job{mkJob(f, 3), mkJob(f, 3)}
	for _, j := range append(append(append([]*job.Job{}, c1...), c2...), c3...) {
		q.Push(j)
	}
	if q.ActiveConnections() != 3 {
		t.Fatalf("active = %d", q.ActiveConnections())
	}
	batch := popBatch(q, 0)
	// Expect first 2 of conn1, 1 of conn2, 2 of conn3 = 5 jobs.
	if len(batch) != 5 {
		t.Fatalf("batch = %d, want 5 (%v)", len(batch), ids(batch))
	}
	want := []job.ID{c1[0].ID, c1[1].ID, c2[0].ID, c3[0].ID, c3[1].ID}
	for i := range want {
		if batch[i].ID != want[i] {
			t.Fatalf("batch order %v, want %v", ids(batch), want)
		}
	}
	// conn1 still has 1 job.
	if q.Len() != 1 {
		t.Fatalf("len = %d, want 1", q.Len())
	}
	rest := popBatch(q, 0)
	if len(rest) != 1 || rest[0].ID != c1[2].ID {
		t.Fatalf("rest = %v", ids(rest))
	}
}

func TestEpollMaxBound(t *testing.T) {
	f := job.NewFactory()
	q := NewEpoll(0) // unbounded per conn
	for c := 1; c <= 3; c++ {
		for i := 0; i < 4; i++ {
			q.Push(mkJob(f, c))
		}
	}
	batch := popBatch(q, 5)
	if len(batch) != 5 {
		t.Fatalf("batch = %d, want 5", len(batch))
	}
	if q.Len() != 7 {
		t.Fatalf("remaining = %d, want 7", q.Len())
	}
	// Remaining jobs must still pop in consistent order with no loss.
	total := len(batch)
	for q.Len() > 0 {
		b := popBatch(q, 5)
		if len(b) == 0 {
			t.Fatal("stuck queue")
		}
		total += len(b)
	}
	if total != 12 {
		t.Fatalf("total popped = %d, want 12", total)
	}
}

func TestEpollPerConnFIFOWithinConnection(t *testing.T) {
	f := job.NewFactory()
	q := NewEpoll(1)
	a, b := mkJob(f, 7), mkJob(f, 7)
	q.Push(a)
	q.Push(b)
	first := popBatch(q, 0)
	if len(first) != 1 || first[0] != a {
		t.Fatal("per-conn limit should take oldest first")
	}
	second := popBatch(q, 0)
	if len(second) != 1 || second[0] != b {
		t.Fatal("second pop should return remaining job")
	}
}

func TestEpollPeek(t *testing.T) {
	f := job.NewFactory()
	q := NewEpoll(1)
	if q.Peek() != nil {
		t.Fatal("empty peek")
	}
	a := mkJob(f, 1)
	q.Push(a)
	if q.Peek() != a || q.Len() != 1 {
		t.Fatal("peek should not consume")
	}
}

func TestSocketSingleConnectionPerBatch(t *testing.T) {
	f := job.NewFactory()
	q := NewSocket(2)
	c1 := []*job.Job{mkJob(f, 1), mkJob(f, 1), mkJob(f, 1)}
	c2 := []*job.Job{mkJob(f, 2), mkJob(f, 2)}
	for _, j := range append(append([]*job.Job{}, c1...), c2...) {
		q.Push(j)
	}
	// First batch: 2 jobs from conn1.
	b1 := popBatch(q, 0)
	if len(b1) != 2 || b1[0] != c1[0] || b1[1] != c1[1] {
		t.Fatalf("b1 = %v", ids(b1))
	}
	// Round robin: next batch from conn2.
	b2 := popBatch(q, 0)
	if len(b2) != 2 || b2[0] != c2[0] {
		t.Fatalf("b2 = %v", ids(b2))
	}
	// Back to conn1's remaining job.
	b3 := popBatch(q, 0)
	if len(b3) != 1 || b3[0] != c1[2] {
		t.Fatalf("b3 = %v", ids(b3))
	}
	if q.Len() != 0 {
		t.Fatal("should be empty")
	}
}

func TestSocketMaxBound(t *testing.T) {
	f := job.NewFactory()
	q := NewSocket(0)
	for i := 0; i < 5; i++ {
		q.Push(mkJob(f, 1))
	}
	if got := len(popBatch(q, 3)); got != 3 {
		t.Fatalf("batch = %d", got)
	}
	if got := len(popBatch(q, 0)); got != 2 {
		t.Fatalf("batch = %d", got)
	}
}

func TestSocketPeekAndActive(t *testing.T) {
	f := job.NewFactory()
	q := NewSocket(1)
	if q.Peek() != nil {
		t.Fatal("empty peek")
	}
	q.Push(mkJob(f, 1))
	q.Push(mkJob(f, 2))
	if q.ActiveConnections() != 2 {
		t.Fatalf("active = %d", q.ActiveConnections())
	}
	p := q.Peek()
	b := popBatch(q, 0)
	if len(b) != 1 || b[0] != p {
		t.Fatal("peek should match next pop")
	}
}

func TestNewByKind(t *testing.T) {
	if _, ok := New(KindSingle, 0, nil).(*FIFO); !ok {
		t.Fatal("single should be FIFO")
	}
	if _, ok := New(KindEpoll, 2, nil).(*Epoll); !ok {
		t.Fatal("epoll kind")
	}
	if _, ok := New(KindSocket, 2, nil).(*Socket); !ok {
		t.Fatal("socket kind")
	}
	if _, ok := New(Kind("unknown"), 0, nil).(*FIFO); !ok {
		t.Fatal("unknown kind should default to FIFO")
	}
}

// Property: for every discipline, no job is lost or duplicated, and jobs
// from the same connection always emerge in FIFO order.
func TestQueueConservationProperty(t *testing.T) {
	prop := func(seed int64, kindSel uint8, perConn uint8, nJobs uint8) bool {
		r := rand.New(rand.NewSource(seed))
		kinds := []Kind{KindSingle, KindEpoll, KindSocket}
		q := New(kinds[int(kindSel)%3], int(perConn%4), new(Spill))
		f := job.NewFactory()
		n := int(nJobs%100) + 1
		pushed := make(map[job.ID]int) // id → conn
		connSeq := make(map[int][]job.ID)
		for i := 0; i < n; i++ {
			c := r.Intn(5)
			j := mkJob(f, c)
			pushed[j.ID] = c
			connSeq[c] = append(connSeq[c], j.ID)
			q.Push(j)
		}
		seen := make(map[job.ID]bool)
		perConnSeen := make(map[int]int)
		for q.Len() > 0 {
			batch := popBatch(q, r.Intn(7)) // 0 (unbounded) .. 6
			if len(batch) == 0 {
				return false // stuck
			}
			for _, j := range batch {
				if seen[j.ID] {
					return false // duplicate
				}
				seen[j.ID] = true
				c := pushed[j.ID]
				// FIFO within connection.
				if connSeq[c][perConnSeen[c]] != j.ID {
					return false
				}
				perConnSeen[c]++
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSpillFollowsQueuesAtOnce: FIFOs sharing a Spill take an overflow
// array when they outgrow their inline slot and give it back when they
// drain, so queues that reach two jobs one after another share one array,
// and only queues holding two or more at once hold one each.
func TestSpillFollowsQueuesAtOnce(t *testing.T) {
	f := job.NewFactory()
	spill := new(Spill)
	qs := make([]*FIFO, 100)
	for i := range qs {
		qs[i] = New(KindSingle, 0, spill).(*FIFO)
	}
	arrays := map[**job.Job]bool{}
	for _, q := range qs {
		for k := 0; k < 3; k++ {
			q.Push(f.NewJob(nil))
		}
		arrays[&q.items[0]] = true
		for q.Len() > 0 {
			q.PopInto(nil, 1)
		}
	}
	if len(arrays) != 1 {
		t.Fatalf("queues reaching three jobs in turn took %d overflow arrays, want 1", len(arrays))
	}
	clear(arrays)
	for _, q := range qs {
		q.Push(f.NewJob(nil))
		q.Push(f.NewJob(nil))
		arrays[&q.items[0]] = true
	}
	if len(arrays) != len(qs) {
		t.Fatalf("%d queues holding two jobs at once use %d overflow arrays", len(qs), len(arrays))
	}
}
