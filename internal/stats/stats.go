package stats

import "uqsim/internal/des"

// Point is one (virtual time, value) observation in a TimeSeries.
type Point struct {
	T des.Time
	V float64
}

// TimeSeries records (time, value) pairs, e.g. the power manager's
// frequency trace or instantaneous tail latency (Fig. 16).
type TimeSeries struct {
	Name   string
	points []Point
}

// NewTimeSeries returns an empty named series.
func NewTimeSeries(name string) *TimeSeries { return &TimeSeries{Name: name} }

// Record appends a point. Timestamps should be nondecreasing.
func (ts *TimeSeries) Record(t des.Time, v float64) {
	ts.points = append(ts.points, Point{T: t, V: v})
}

// Points returns the recorded points (shared slice; treat as read-only).
func (ts *TimeSeries) Points() []Point { return ts.points }
