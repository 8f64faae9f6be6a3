package queueing

import (
	"uqsim/internal/job"
)

// connSubs classifies jobs into per-connection subqueues, each kept in
// arrival order. Subqueues are found by connection ID in a table of
// fixed-size pages, a page allocated when one of its connections first
// queues, so a queue that only sees one pool's tokens holds pages for
// those alone and the table never copies a subqueue as it grows. The IDs
// are only labels, since order follows activation order. A connection's
// subqueue and its backing array outlive the moments the connection has
// nothing queued, so re-activating a connection allocates nothing; order
// lists only the connections with queued jobs.
type connSubs struct {
	pages [][]FIFO // connection c's subqueue: pages[c/connPage][c%connPage]
	order []int    // active connection IDs in first-activation order
	total int
}

// connPage is the number of connections one page of the table covers.
const connPage = 64

// at returns conn's subqueue, whose page must exist.
func (c *connSubs) at(conn int) *FIFO { return &c.pages[conn/connPage][conn%connPage] }

func (c *connSubs) Push(j *job.Job) {
	p := j.Conn / connPage
	for p >= len(c.pages) {
		c.pages = append(c.pages, nil)
	}
	if c.pages[p] == nil {
		c.pages[p] = make([]FIFO, connPage)
	}
	sub := c.at(j.Conn)
	if sub.Len() == 0 {
		c.order = append(c.order, j.Conn)
	}
	sub.Push(j)
	c.total++
}

func (c *connSubs) Len() int { return c.total }

// Epoll models the epoll stage queue: jobs are classified into subqueues by
// connection, and one batch drains the first PerConn jobs of every active
// subqueue — the simulator analogue of epoll_wait returning all ready
// events at once. The batch cost amortization this enables is the key
// modelling difference from single-queue simulators (paper §IV-E).
type Epoll struct {
	// PerConn bounds jobs taken per connection per batch (the paper's
	// "queue parameter" N); <= 0 means all queued jobs per connection.
	PerConn int

	connSubs
}

// NewEpoll returns an epoll queue taking up to perConn jobs per connection
// per batch (<= 0: unbounded).
func NewEpoll(perConn int) *Epoll {
	return &Epoll{PerConn: perConn}
}

// PopInto appends the first PerConn jobs of each active subqueue, in
// connection-activation order, overall bounded by max (<=0: unbounded).
func (q *Epoll) PopInto(buf []*job.Job, max int) []*job.Job {
	base, keep := len(buf), 0
	for i, conn := range q.order {
		sub := q.at(conn)
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
			q.order[keep] = conn
			keep++
		}
	}
	q.order = q.order[:keep]
	return buf
}

// PopBatch is PopInto with a fresh slice, for callers that hold no buffer.
func (q *Epoll) PopBatch(max int) []*job.Job { return q.PopInto(nil, max) }

func (q *Epoll) Peek() *job.Job {
	if q.total == 0 {
		return nil
	}
	return q.at(q.order[0]).Peek()
}

// Socket models the socket_read stage queue: per-connection subqueues, but a
// batch drains up to PerConn jobs from a single ready connection,
// round-robining across connections on successive pops.
type Socket struct {
	// PerConn bounds jobs per batch (<= 0: whole connection).
	PerConn int

	connSubs
	next int // round-robin cursor into order
}

// NewSocket returns a socket queue draining up to perConn jobs from one
// connection per batch (<= 0: entire connection backlog).
func NewSocket(perConn int) *Socket {
	return &Socket{PerConn: perConn}
}

func (q *Socket) PopInto(buf []*job.Job, max int) []*job.Job {
	if q.total == 0 {
		return buf
	}
	if q.next >= len(q.order) {
		q.next = 0
	}
	sub := q.at(q.order[q.next])
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
		// cursor now points at the following connection already
	} else {
		q.next++
	}
	return buf
}

func (q *Socket) Peek() *job.Job {
	if q.total == 0 {
		return nil
	}
	idx := q.next
	if idx >= len(q.order) {
		idx = 0
	}
	return q.at(q.order[idx]).Peek()
}

// Kind names a queue discipline in configs.
type Kind string

// Queue disciplines, matching the paper's service.json "queue_type" values.
const (
	KindSingle Kind = "single"
	KindEpoll  Kind = "epoll"
	KindSocket Kind = "socket"
)

// New constructs a queue of the given kind. perConn is the per-connection
// batch parameter for epoll/socket (ignored for single).
func New(kind Kind, perConn int) Queue {
	switch kind {
	case KindEpoll:
		return NewEpoll(perConn)
	case KindSocket:
		return NewSocket(perConn)
	default:
		return NewFIFO()
	}
}
