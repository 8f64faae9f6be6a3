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
// A queue that outgrows the slot moves to an array of overflowCap: in the
// 600-leaf fan-out a third of the queues that reach two jobs reach three.
type FIFO struct {
	items []*job.Job
	head  int
	first [1]*job.Job
}

const overflowCap = 4

// NewFIFO returns an empty FIFO queue.
func NewFIFO() *FIFO { return &FIFO{} }

func (q *FIFO) Push(j *job.Job) {
	switch {
	case q.items == nil:
		q.items = q.first[:0]
	case cap(q.items) == len(q.first) && len(q.items) == len(q.first):
		q.items = append(make([]*job.Job, 0, overflowCap), q.items...)
	}
	q.items = append(q.items, j)
}

func (q *FIFO) PopInto(buf []*job.Job, max int) []*job.Job {
	n := q.Len()
	if max <= 0 || max > n {
		max = n
	}
	buf = append(buf, q.items[q.head:q.head+max]...)
	q.head += max
	q.compact()
	return buf
}

// Pop removes and returns the single oldest job, or nil when empty.
func (q *FIFO) Pop() *job.Job {
	if q.Len() == 0 {
		return nil
	}
	j := q.items[q.head]
	q.head++
	q.compact()
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
	q.compact()
	return j
}

func (q *FIFO) Len() int { return len(q.items) - q.head }

func (q *FIFO) Peek() *job.Job {
	if q.Len() == 0 {
		return nil
	}
	return q.items[q.head]
}

func (q *FIFO) compact() {
	if q.head > 64 && q.head*2 >= len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	if q.Len() == 0 {
		q.items = q.items[:0]
		q.head = 0
	}
}
