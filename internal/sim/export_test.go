package sim

import (
	"context"
	"sync/atomic"

	"uqsim/internal/job"
)

// PoisonContext returns a context under which every Sim bound to it (see
// Sim.Bind) poisons what it releases (see Sim.poisonReleased), for tests
// outside the package; bound counts those Sims.
func PoisonContext(ctx context.Context, bound *atomic.Int64) context.Context {
	return poisonCtx{ctx, bound}
}

// poisonCtx carries the poison key and counts the Binds that read it.
type poisonCtx struct {
	context.Context
	bound *atomic.Int64
}

func (c poisonCtx) Value(key any) any {
	if key == (poisonKey{}) {
		c.bound.Add(1)
		return true
	}
	return c.Context.Value(key)
}

// ReportCounting is the report of a run that measured nothing but the
// requests counted in n, one counter per outcome slot.
func ReportCounting(n [job.NumOutcomes]uint64) *Report {
	s := New(Options{})
	s.outcomes = n
	return s.report(0)
}
