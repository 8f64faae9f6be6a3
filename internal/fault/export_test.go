package fault

// Dropping reports whether the controller is currently in a shedding
// episode.
func (c *CoDel) Dropping() bool { return c.dropping }

// Drops reports the lifetime number of jobs shed.
func (c *CoDel) Drops() uint64 { return c.drops }
