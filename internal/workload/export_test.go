package workload

// BackgroundUsers is the count of users carried by the fluid tier.
func (s *Sessions) BackgroundUsers() int { return s.bgUsers }

// SimulatedUsers is the count of full-fidelity users.
func (s *Sessions) SimulatedUsers() int { return len(s.users) }
