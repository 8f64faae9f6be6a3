// Package queueing implements the stage job queues of µqSim's
// intra-microservice model. Each execution stage is a queue–consumer pair;
// the queue's discipline decides how jobs are grouped into batches when a
// worker becomes available:
//
//   - FIFO ("single"): plain first-in-first-out, one or many jobs at a time.
//   - Epoll: jobs are classified into per-connection subqueues; a batch
//     returns the first N jobs of each active subqueue, modelling an
//     epoll_wait that reports all ready connections at once.
//   - Socket ("socket_read"): per-connection subqueues; a batch returns up
//     to N jobs from a single ready connection, round-robining across
//     connections on successive pops.
package queueing

import (
	"uqsim/internal/job"
	"uqsim/internal/slab"
)

// Queue is a stage's job queue.
type Queue interface {
	// Push enqueues a job.
	Push(j *job.Job)
	// PopInto removes the next batch according to the queue's discipline
	// and appends it to buf, returning the extended slice (buf itself when
	// the queue is empty). max bounds the batch size; max <= 0 means the
	// discipline's natural/unbounded batch. The caller owns buf, so a
	// steady-state pop allocates nothing.
	PopInto(buf []*job.Job, max int) []*job.Job
	// Len reports the number of queued jobs.
	Len() int
	// Peek returns the job that would lead the next batch without
	// removing it, or nil when empty.
	Peek() *job.Job
}

// FIFO is the "single" queue type: one global FIFO. Its first backing
// array is an inline slot, so a queue that never holds more than one job
// allocates nothing; a FIFO must not be copied once it has been pushed to.
// A queue that outgrows the slot moves to an array of overflowCap, taken
// from its Spill and given back when the queue drains, so the arrays
// follow the queues holding two or more jobs at once. In the 600-leaf
// fan-out a third of the queues that reach two jobs reach three.
type FIFO struct {
	fifo
	spill *Spill
}

// fifo is a FIFO without its Spill, which each operation is given: the
// subqueues of a connection table share the table's (connSubs).
type fifo struct {
	items []*job.Job
	head  int
	first [1]*job.Job
}

const overflowCap = 4

// Spill recycles the overflow arrays of the FIFOs that share it, epoll and
// socket subqueues included: one serves every queue of a simulation (New),
// and a queue made on its own has its own. The zero value is ready.
type Spill struct {
	arrays slab.Slab[[overflowCap]*job.Job]
}

// NewFIFO returns an empty FIFO queue with a Spill of its own.
func NewFIFO() *FIFO { return &FIFO{spill: new(Spill)} }

func (q *FIFO) Push(j *job.Job) { q.push(j, q.spill) }

func (q *FIFO) PopInto(buf []*job.Job, max int) []*job.Job { return q.popInto(buf, max, q.spill) }

// Pop removes and returns the single oldest job, or nil when empty.
func (q *FIFO) Pop() *job.Job {
	if q.Len() == 0 {
		return nil
	}
	j := q.items[q.head]
	q.head++
	q.compact(q.spill)
	return j
}

// PopTail removes and returns the single newest job, or nil when empty.
// Adaptive-LIFO admission uses it to serve fresh requests first under
// overload while the queue otherwise stays FIFO.
func (q *FIFO) PopTail() *job.Job {
	if q.Len() == 0 {
		return nil
	}
	j := q.items[len(q.items)-1]
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	q.compact(q.spill)
	return j
}

func (q *fifo) push(j *job.Job, spill *Spill) {
	switch {
	case q.items == nil:
		q.items = q.first[:0]
	case cap(q.items) == len(q.first) && len(q.items) == len(q.first):
		q.items = append(spill.arrays.Get()[:0], q.items...)
	}
	q.items = append(q.items, j)
}

func (q *fifo) popInto(buf []*job.Job, max int, spill *Spill) []*job.Job {
	n := q.Len()
	if max <= 0 || max > n {
		max = n
	}
	buf = append(buf, q.items[q.head:q.head+max]...)
	q.head += max
	q.compact(spill)
	return buf
}

func (q *fifo) Len() int { return len(q.items) - q.head }

func (q *fifo) Peek() *job.Job {
	if q.Len() == 0 {
		return nil
	}
	return q.items[q.head]
}

// compact slides the queued jobs to the front once the popped ones fill
// half the array, and resets a drained queue, handing an overflow array
// back to spill.
func (q *fifo) compact(spill *Spill) {
	if q.head > 64 && q.head*2 >= len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	if q.Len() == 0 {
		q.items = q.items[:0]
		q.head = 0
		if cap(q.items) == overflowCap {
			spill.arrays.Put((*[overflowCap]*job.Job)(q.items[:overflowCap]))
			q.items = q.first[:0]
		}
	}
}
