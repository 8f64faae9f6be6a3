// Package des implements the discrete-event simulation engine at the core
// of µqSim. Simulated time is a virtual clock measured in integer
// nanoseconds; events are callbacks scheduled at absolute virtual times and
// executed in nondecreasing time order with deterministic FIFO tie-breaking,
// so a run with a fixed seed is exactly reproducible.
package des

import (
	"fmt"
	"math"
	"time"
)

// Time is a point on (or a distance along) the simulated clock, in
// nanoseconds. It is deliberately distinct from time.Duration so that wall
// -clock and virtual-clock quantities cannot be mixed by accident.
type Time int64

// Convenient units for expressing virtual durations.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// FromDuration converts a wall-clock duration literal (handy with the
// time.Millisecond constants) to virtual time.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// FromSeconds converts a floating-point number of seconds to virtual time,
// rounding to the nearest nanosecond.
func FromSeconds(s float64) Time { return Time(math.Round(s * 1e9)) }

// FromNanos converts a floating-point nanosecond quantity (the unit used by
// the dist package samplers) to Time. Negative inputs clamp to zero: a
// sampled service time can never move the clock backwards.
func FromNanos(ns float64) Time {
	if ns <= 0 {
		return 0
	}
	if ns >= math.MaxInt64 {
		return MaxTime
	}
	return Time(math.Round(ns))
}

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / 1e6 }

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// String formats the time with an auto-selected unit, e.g. "1.500ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%s", -t)
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}
