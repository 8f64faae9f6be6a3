package queueing

// ActiveConnections reports how many connections currently have queued jobs.
func (c *connSubs) ActiveConnections() int { return len(c.order) }
