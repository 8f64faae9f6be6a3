package queueing

import (
	"math/rand"
	"testing"

	"uqsim/internal/job"
)

// This file keeps the allocating queue implementations the package shipped
// before PopInto as the reference: a fresh batch slice per pop, a fresh
// subqueue per connection activation. The equivalence test below drives the
// reference and the live queues with one random script and demands
// identical batch sequences.

// popBatch pops one batch into a fresh slice (nil when the queue is empty).
func popBatch(q Queue, max int) []*job.Job { return q.PopInto(nil, max) }

// refQueue is what the equivalence script needs of either implementation.
type refQueue interface {
	Push(j *job.Job)
	PopBatch(max int) []*job.Job
	Len() int
	Peek() *job.Job
}

type refFIFO struct {
	items []*job.Job
	head  int
}

func (q *refFIFO) Push(j *job.Job) { q.items = append(q.items, j) }

func (q *refFIFO) PopBatch(max int) []*job.Job {
	n := q.Len()
	if n == 0 {
		return nil
	}
	if max <= 0 || max > n {
		max = n
	}
	batch := make([]*job.Job, max)
	copy(batch, q.items[q.head:q.head+max])
	q.head += max
	q.compact()
	return batch
}

func (q *refFIFO) Pop() *job.Job {
	b := q.PopBatch(1)
	if len(b) == 0 {
		return nil
	}
	return b[0]
}

func (q *refFIFO) PopTail() *job.Job {
	if q.Len() == 0 {
		return nil
	}
	j := q.items[len(q.items)-1]
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	q.compact()
	return j
}

func (q *refFIFO) Len() int { return len(q.items) - q.head }

func (q *refFIFO) Peek() *job.Job {
	if q.Len() == 0 {
		return nil
	}
	return q.items[q.head]
}

func (q *refFIFO) compact() {
	if q.head > 64 && q.head*2 >= len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	if q.Len() == 0 {
		q.items = q.items[:0]
		q.head = 0
	}
}

type refConnQueue struct {
	conn  int
	items []*job.Job
}

type refEpoll struct {
	PerConn int
	subs    map[int]*refConnQueue
	order   []int
	total   int
}

func (q *refEpoll) Push(j *job.Job) {
	sub, ok := q.subs[j.Conn]
	if !ok {
		sub = &refConnQueue{conn: j.Conn}
		q.subs[j.Conn] = sub
		q.order = append(q.order, j.Conn)
	}
	sub.items = append(sub.items, j)
	q.total++
}

func (q *refEpoll) PopBatch(max int) []*job.Job {
	if q.total == 0 {
		return nil
	}
	var batch []*job.Job
	newOrder := make([]int, 0, len(q.order))
	for i, conn := range q.order {
		if max > 0 && len(batch) >= max {
			newOrder = append(newOrder, q.order[i:]...)
			break
		}
		sub := q.subs[conn]
		take := len(sub.items)
		if q.PerConn > 0 && take > q.PerConn {
			take = q.PerConn
		}
		if max > 0 && len(batch)+take > max {
			take = max - len(batch)
		}
		if take > 0 {
			batch = append(batch, sub.items[:take]...)
			sub.items = sub.items[take:]
			q.total -= take
		}
		if len(sub.items) == 0 {
			delete(q.subs, conn)
		} else {
			newOrder = append(newOrder, conn)
		}
	}
	q.order = newOrder
	return batch
}

func (q *refEpoll) Len() int { return q.total }

func (q *refEpoll) Peek() *job.Job {
	for _, conn := range q.order {
		if sub, ok := q.subs[conn]; ok && len(sub.items) > 0 {
			return sub.items[0]
		}
	}
	return nil
}

func (q *refEpoll) ActiveConnections() int { return len(q.subs) }

type refSocket struct {
	PerConn int
	subs    map[int]*refConnQueue
	order   []int
	next    int
	total   int
}

func (q *refSocket) Push(j *job.Job) {
	sub, ok := q.subs[j.Conn]
	if !ok {
		sub = &refConnQueue{conn: j.Conn}
		q.subs[j.Conn] = sub
		q.order = append(q.order, j.Conn)
	}
	sub.items = append(sub.items, j)
	q.total++
}

func (q *refSocket) PopBatch(max int) []*job.Job {
	if q.total == 0 {
		return nil
	}
	if q.next >= len(q.order) {
		q.next = 0
	}
	conn := q.order[q.next]
	sub := q.subs[conn]
	take := len(sub.items)
	if q.PerConn > 0 && take > q.PerConn {
		take = q.PerConn
	}
	if max > 0 && take > max {
		take = max
	}
	batch := make([]*job.Job, take)
	copy(batch, sub.items[:take])
	sub.items = sub.items[take:]
	q.total -= take
	if len(sub.items) == 0 {
		delete(q.subs, conn)
		q.order = append(q.order[:q.next], q.order[q.next+1:]...)
	} else {
		q.next++
	}
	return batch
}

func (q *refSocket) Len() int { return q.total }

func (q *refSocket) Peek() *job.Job {
	if q.total == 0 {
		return nil
	}
	idx := q.next
	if idx >= len(q.order) {
		idx = 0
	}
	return q.subs[q.order[idx]].items[0]
}

func (q *refSocket) ActiveConnections() int { return len(q.subs) }

// liveAdapter presents a live queue through the reference's PopBatch shape,
// appending into one buffer it keeps across pops — as the service runtime
// does — so buffer reuse is part of what the script exercises.
type liveAdapter struct {
	Queue
	buf []*job.Job
}

func (a *liveAdapter) PopBatch(max int) []*job.Job {
	a.buf = a.PopInto(a.buf[:0], max)
	return a.buf
}

func sameJobs(a, b []*job.Job) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQueueDisciplinesMatchReference drives the live FIFO, Epoll and Socket
// and their pre-PopInto references with the same random script — pushes on
// a small connection set (so connections drain and re-activate), pops with
// varying max, Peek, and for the FIFO Pop and PopTail — and demands the
// same jobs in the same order at every step.
func TestQueueDisciplinesMatchReference(t *testing.T) {
	type pair struct {
		name      string
		ref       refQueue
		live      *liveAdapter
		active    func() (ref, live int) // nil: discipline has no connections
		popSingle bool                   // FIFO: also script Pop and PopTail
	}
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		perConn := r.Intn(5) // 0: unbounded
		refE := &refEpoll{PerConn: perConn, subs: make(map[int]*refConnQueue)}
		liveE := NewEpoll(perConn)
		refS := &refSocket{PerConn: perConn, subs: make(map[int]*refConnQueue)}
		liveS := NewSocket(perConn)
		pairs := []pair{
			{name: "fifo", ref: &refFIFO{}, live: &liveAdapter{Queue: NewFIFO()}, popSingle: true},
			{name: "epoll", ref: refE, live: &liveAdapter{Queue: liveE},
				active: func() (int, int) { return refE.ActiveConnections(), liveE.ActiveConnections() }},
			{name: "socket", ref: refS, live: &liveAdapter{Queue: liveS},
				active: func() (int, int) { return refS.ActiveConnections(), liveS.ActiveConnections() }},
		}
		f := job.NewFactory()
		conns := 1 + r.Intn(6)
		// A long script with bursts, so FIFO compaction (head > 64) and
		// subqueue re-activation both happen.
		for step := 0; step < 600; step++ {
			op := r.Intn(10)
			burst := 1
			if r.Intn(20) == 0 {
				burst = 100
			}
			max := r.Intn(8) // 0: unbounded
			var pushed []*job.Job
			if op < 5 {
				for i := 0; i < burst; i++ {
					j := f.NewJob(nil)
					j.Conn = r.Intn(conns)
					pushed = append(pushed, j)
				}
			}
			for _, p := range pairs {
				switch {
				case op < 5:
					for _, j := range pushed {
						p.ref.Push(j)
						p.live.Push(j)
					}
				case op < 8:
					want, got := p.ref.PopBatch(max), p.live.PopBatch(max)
					if !sameJobs(want, got) {
						t.Fatalf("seed %d step %d %s: PopBatch(%d) = %v, reference %v",
							seed, step, p.name, max, ids(got), ids(want))
					}
				case op == 8 && p.popSingle:
					ref, live := p.ref.(*refFIFO), p.live.Queue.(*FIFO)
					if want, got := ref.Pop(), live.Pop(); want != got {
						t.Fatalf("seed %d step %d: Pop diverged", seed, step)
					}
				case op == 9 && p.popSingle:
					ref, live := p.ref.(*refFIFO), p.live.Queue.(*FIFO)
					if want, got := ref.PopTail(), live.PopTail(); want != got {
						t.Fatalf("seed %d step %d: PopTail diverged", seed, step)
					}
				}
				if p.ref.Len() != p.live.Len() || p.ref.Peek() != p.live.Peek() {
					t.Fatalf("seed %d step %d %s: Len %d/%d or Peek diverged",
						seed, step, p.name, p.live.Len(), p.ref.Len())
				}
				if p.active != nil {
					if want, got := p.active(); want != got {
						t.Fatalf("seed %d step %d %s: %d active connections, reference %d",
							seed, step, p.name, got, want)
					}
				}
			}
		}
	}
}

// TestPopIntoReusesBuffer: once the caller's buffer and the queue's backing
// arrays have grown, pushing and popping allocates nothing — including a
// connection that drains and re-activates every round.
func TestPopIntoReusesBuffer(t *testing.T) {
	f := job.NewFactory()
	jobs := make([]*job.Job, 64)
	for i := range jobs {
		jobs[i] = f.NewJob(nil)
		jobs[i].Conn = i % 8
	}
	for _, q := range []Queue{NewFIFO(), NewEpoll(2), NewSocket(2)} {
		var buf []*job.Job
		round := func() {
			for _, j := range jobs {
				q.Push(j)
			}
			for q.Len() > 0 {
				buf = q.PopInto(buf[:0], 16)
			}
		}
		round() // grow every backing array once
		if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
			t.Errorf("%T: %v allocs per push/pop round, want 0", q, allocs)
		}
	}
}

// mapSubs is connSubs as it was before subqueues were indexed by
// connection ID: a map from ID to subqueue. mapEpoll and mapSocket are the
// Epoll and Socket batch rules over it, unchanged.
type mapSubs struct {
	subs  map[int]*FIFO
	order []*FIFO
	total int
}

func (c *mapSubs) Push(j *job.Job) {
	sub := c.subs[j.Conn]
	if sub == nil {
		sub = NewFIFO()
		c.subs[j.Conn] = sub
	}
	if sub.Len() == 0 {
		c.order = append(c.order, sub)
	}
	sub.Push(j)
	c.total++
}

func (c *mapSubs) Len() int { return c.total }

func (c *mapSubs) Peek() *job.Job {
	if c.total == 0 {
		return nil
	}
	return c.order[0].Peek()
}

type mapEpoll struct {
	PerConn int
	mapSubs
}

func (q *mapEpoll) PopInto(buf []*job.Job, max int) []*job.Job {
	base, keep := len(buf), 0
	for i, sub := range q.order {
		take := sub.Len()
		if q.PerConn > 0 && take > q.PerConn {
			take = q.PerConn
		}
		if max > 0 {
			room := max - (len(buf) - base)
			if room <= 0 {
				keep += copy(q.order[keep:], q.order[i:])
				break
			}
			if take > room {
				take = room
			}
		}
		buf = sub.PopInto(buf, take)
		q.total -= take
		if sub.Len() > 0 {
			q.order[keep] = sub
			keep++
		}
	}
	q.order = q.order[:keep]
	return buf
}

type mapSocket struct {
	PerConn int
	mapSubs
	next int
}

func (q *mapSocket) PopInto(buf []*job.Job, max int) []*job.Job {
	if q.total == 0 {
		return buf
	}
	if q.next >= len(q.order) {
		q.next = 0
	}
	sub := q.order[q.next]
	take := sub.Len()
	if q.PerConn > 0 && take > q.PerConn {
		take = q.PerConn
	}
	if max > 0 && take > max {
		take = max
	}
	buf = sub.PopInto(buf, take)
	q.total -= take
	if sub.Len() == 0 {
		q.order = append(q.order[:q.next], q.order[q.next+1:]...)
	} else {
		q.next++
	}
	return buf
}

func (q *mapSocket) Peek() *job.Job {
	if q.total == 0 {
		return nil
	}
	idx := q.next
	if idx >= len(q.order) {
		idx = 0
	}
	return q.order[idx].Peek()
}

// TestConnSubsDense: connection IDs are labels, so renumbering them cannot
// move a job. The simulator numbers a connection pool's tokens densely after
// the client's connections, where they used to start at 1<<20; the script
// interleaves client connections with pool tokens and demands that the
// ID-indexed queues, fed the dense numbers, pop exactly what the map-keyed
// ones pop when fed the old numbers.
func TestConnSubsDense(t *testing.T) {
	const clients, tokens = 64, 40
	for seed := int64(1); seed <= 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		perConn := r.Intn(5)
		cases := []struct {
			name      string
			old, live Queue
		}{
			{"epoll", &mapEpoll{PerConn: perConn, mapSubs: mapSubs{subs: map[int]*FIFO{}}}, NewEpoll(perConn)},
			{"socket", &mapSocket{PerConn: perConn, mapSubs: mapSubs{subs: map[int]*FIFO{}}}, NewSocket(perConn)},
		}
		for _, c := range cases {
			f := job.NewFactory()
			var oldBuf, liveBuf []*job.Job
			for step := 0; step < 2000; step++ {
				if r.Intn(3) > 0 {
					j := f.NewJob(nil)
					oldConn, liveConn := r.Intn(clients), 0
					if r.Intn(2) == 0 {
						k := r.Intn(tokens)
						oldConn, liveConn = 1<<20+k, clients+k
					} else {
						liveConn = oldConn
					}
					dup := *j
					j.Conn, dup.Conn = oldConn, liveConn
					c.old.Push(j)
					c.live.Push(&dup)
					continue
				}
				max := r.Intn(8)
				oldBuf, liveBuf = c.old.PopInto(oldBuf[:0], max), c.live.PopInto(liveBuf[:0], max)
				if len(oldBuf) != len(liveBuf) {
					t.Fatalf("seed %d step %d %s: popped %d jobs, map-keyed %d", seed, step, c.name, len(liveBuf), len(oldBuf))
				}
				for i := range oldBuf {
					if oldBuf[i].ID != liveBuf[i].ID {
						t.Fatalf("seed %d step %d %s: pop %d is job %d, map-keyed %d",
							seed, step, c.name, i, liveBuf[i].ID, oldBuf[i].ID)
					}
				}
				if c.old.Len() != c.live.Len() || (c.old.Peek() == nil) != (c.live.Peek() == nil) ||
					(c.old.Peek() != nil && c.old.Peek().ID != c.live.Peek().ID) {
					t.Fatalf("seed %d step %d %s: Len or Peek diverged", seed, step, c.name)
				}
			}
		}
	}
}
