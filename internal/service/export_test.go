package service

// Arrived reports admitted jobs.
func (in *Instance) Arrived() uint64 { return in.arrived }
