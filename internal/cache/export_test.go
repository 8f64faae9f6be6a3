package cache

// Len reports the number of cached keys.
func (c *LRU) Len() int { return c.order.Len() }

// Hits and Misses report the raw lookup counters.
func (c *LRU) Hits() uint64   { return c.hits }
func (c *LRU) Misses() uint64 { return c.misses }
