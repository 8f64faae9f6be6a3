package queueing

// ActiveConnections reports how many connections currently have queued jobs.
func (c *connSubs) ActiveConnections() int { return len(c.order) }

// NewSocket returns a socket queue draining up to perConn jobs from one
// connection per batch (<= 0: entire connection backlog), with a Spill of
// its own.
func NewSocket(perConn int) *Socket { return New(KindSocket, perConn, new(Spill)).(*Socket) }
