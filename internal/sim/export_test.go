package sim

import "uqsim/internal/job"

// PoisonReleased switches on the pool-hygiene hook for tests outside the
// package (see Sim.poisonReleased).
func PoisonReleased(s *Sim) { s.poisonReleased = true }

// ReportCounting is the report of a run that measured nothing but the
// requests counted in n, one counter per outcome slot.
func ReportCounting(n [job.NumOutcomes]uint64) *Report {
	s := New(Options{})
	s.outcomes = n
	return s.report(0)
}
