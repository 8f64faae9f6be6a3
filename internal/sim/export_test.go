package sim

// PoisonReleased switches on the pool-hygiene hook for tests outside the
// package (see Sim.poisonReleased).
func PoisonReleased(s *Sim) { s.poisonReleased = true }
