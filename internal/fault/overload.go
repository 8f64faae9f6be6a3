package fault

import (
	"fmt"
	"math"

	"uqsim/internal/des"
)

// QueueKind selects a per-instance admission/ordering discipline applied to
// a service's entry queue, beyond the static MaxQueue length bound.
type QueueKind int

// Queue disciplines.
const (
	// QueueFIFO is the default: first-in-first-out, no sojourn shedding.
	QueueFIFO QueueKind = iota
	// QueueCoDel sheds by sojourn time: when the queueing delay of
	// dequeued jobs stays above Target for a full Interval, heads are
	// dropped at an increasing rate (interval/sqrt(count)) until the
	// delay recovers — bounding queueing delay instead of queue length.
	QueueCoDel
	// QueueLIFO is adaptive LIFO-under-overload: while the head's sojourn
	// exceeds Target the newest job is served first, so fresh requests
	// (which can still meet their deadline) are preferred over stale ones
	// that have already blown theirs.
	QueueLIFO
	// QueueCoDelLIFO combines CoDel shedding with adaptive LIFO ordering.
	QueueCoDelLIFO
)

// String names the discipline.
func (k QueueKind) String() string {
	switch k {
	case QueueFIFO:
		return "fifo"
	case QueueCoDel:
		return "codel"
	case QueueLIFO:
		return "lifo"
	case QueueCoDelLIFO:
		return "codel+lifo"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// QueueDiscipline configures one service's entry-queue discipline.
type QueueDiscipline struct {
	Kind QueueKind
	// Target is the acceptable standing queueing delay (CoDel target /
	// adaptive-LIFO trigger). Defaults to 5ms when zero.
	Target des.Time
	// Interval is the CoDel control interval — how long the sojourn must
	// stay above Target before shedding starts. Defaults to 100ms.
	Interval des.Time
}

// Validate checks parameter ranges.
func (d *QueueDiscipline) Validate() error {
	if d.Kind < QueueFIFO || d.Kind > QueueCoDelLIFO {
		return fmt.Errorf("fault: unknown queue discipline %d", int(d.Kind))
	}
	if d.Target < 0 {
		return fmt.Errorf("fault: queue discipline target %v negative", d.Target)
	}
	if d.Interval < 0 {
		return fmt.Errorf("fault: queue discipline interval %v negative", d.Interval)
	}
	return nil
}

// WithDefaults returns a copy with the documented defaults filled in.
func (d QueueDiscipline) WithDefaults() QueueDiscipline {
	if d.Target <= 0 {
		d.Target = 5 * des.Millisecond
	}
	if d.Interval <= 0 {
		d.Interval = 100 * des.Millisecond
	}
	return d
}

// Sheds reports whether the discipline includes CoDel sojourn shedding.
func (d QueueDiscipline) Sheds() bool {
	return d.Kind == QueueCoDel || d.Kind == QueueCoDelLIFO
}

// LIFO reports whether the discipline flips to newest-first under overload.
func (d QueueDiscipline) LIFO() bool {
	return d.Kind == QueueLIFO || d.Kind == QueueCoDelLIFO
}

// CoDel is the controlled-delay shedding state machine (Nichols & Jacobson,
// CACM 2012), driven entirely by virtual time so runs stay deterministic.
// The consumer calls OnDequeue with each dequeued job's sojourn time; a
// true return means "shed this job and examine the next".
type CoDel struct {
	target   des.Time
	interval des.Time

	// firstAbove is the deadline by which the sojourn must dip below
	// target to avoid entering the dropping state (0: currently below).
	firstAbove des.Time
	dropping   bool
	dropNext   des.Time
	count      uint64 // drops in the current dropping episode
	drops      uint64 // lifetime shed count
}

// NewCoDel builds the controller for a (defaulted, validated) discipline.
func NewCoDel(d QueueDiscipline) *CoDel {
	d = d.WithDefaults()
	return &CoDel{target: d.Target, interval: d.Interval}
}

// OnDequeue feeds one dequeue observation (the job's time spent queued)
// and reports whether the job should be shed instead of served.
func (c *CoDel) OnDequeue(now, sojourn des.Time) bool {
	if sojourn < c.target {
		// Standing delay is acceptable: leave the dropping state and
		// restart the above-target clock.
		c.firstAbove = 0
		c.dropping = false
		return false
	}
	if c.firstAbove == 0 {
		// First observation above target: give the queue one interval to
		// recover before shedding.
		c.firstAbove = now + c.interval
		return false
	}
	if !c.dropping {
		if now < c.firstAbove {
			return false
		}
		// The sojourn stayed above target for a whole interval: start
		// shedding, beginning with this job.
		c.dropping = true
		c.count = 1
		c.dropNext = c.next(now)
		c.drops++
		return true
	}
	if now < c.dropNext {
		return false
	}
	// In the dropping state, shed at the increasing control-law rate.
	c.count++
	c.dropNext = c.next(c.dropNext)
	c.drops++
	return true
}

// next advances the drop schedule by interval/sqrt(count) from the given
// reference time — the CoDel control law.
func (c *CoDel) next(from des.Time) des.Time {
	return from + des.Time(float64(c.interval)/math.Sqrt(float64(c.count)))
}
