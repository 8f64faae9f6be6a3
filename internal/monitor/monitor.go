// Package monitor samples live simulation state on a fixed virtual-time
// cadence: per-instance queue lengths, in-flight counts, and core
// utilization. It is the observability companion to the trace package —
// traces explain individual slow requests, the monitor shows where queues
// build up over time (the back-pressure and cascading-hotspot effects the
// paper's power-management study worries about).
package monitor

import (
	"uqsim/internal/des"
	"uqsim/internal/service"
	"uqsim/internal/stats"
)

// Target is anything the monitor can sample. service.Instance satisfies it.
type Target interface {
	QueueLen() int
	InFlight() int
	Utilization(now des.Time) float64
}

var _ Target = (*service.Instance)(nil)

// ErrorTarget is an optional Target extension for targets that reject work:
// cumulative shed (queue-bound) and dropped (kill/crash) counts.
// service.Instance satisfies it.
type ErrorTarget interface {
	Shed() uint64
	Dropped() uint64
}

// HealthTarget is an optional Target extension for targets that can be taken
// down by fault injection. service.Instance satisfies it.
type HealthTarget interface {
	Down() bool
}

// WasteTarget is an optional Target extension for targets that discard
// work under overload control: jobs cancelled before service (deadline
// expiry, lost hedge races caught in the queue) and completed services
// nobody consumed. service.Instance satisfies it.
type WasteTarget interface {
	CanceledEarly() uint64
	WastedWork() uint64
}

var (
	_ ErrorTarget  = (*service.Instance)(nil)
	_ HealthTarget = (*service.Instance)(nil)
	_ WasteTarget  = (*service.Instance)(nil)
)

// Series holds the sampled time series of one target.
type Series struct {
	Name     string
	QueueLen *stats.TimeSeries
	InFlight *stats.TimeSeries
	// Util is the cumulative mean utilization at each sample time.
	Util *stats.TimeSeries
	// Shed and Dropped track cumulative rejected work; nil unless the
	// target implements ErrorTarget.
	Shed    *stats.TimeSeries
	Dropped *stats.TimeSeries
	// Up is 1 while the target is serving and 0 while faulted; nil unless
	// the target implements HealthTarget.
	Up *stats.TimeSeries
	// Canceled and Wasted track cumulative discarded work (cancelled
	// before service vs served uselessly); nil unless the target
	// implements WasteTarget.
	Canceled *stats.TimeSeries
	Wasted   *stats.TimeSeries
}

// Monitor drives periodic sampling on a DES engine.
type Monitor struct {
	eng      *des.Engine
	interval des.Time
	targets  []Target
	series   []*Series
	gaugeFns []func(now des.Time) float64
	gauges   []*stats.TimeSeries
	started  bool
}

// New creates a monitor sampling every interval of virtual time.
func New(eng *des.Engine, interval des.Time) *Monitor {
	if interval <= 0 {
		panic("monitor: interval must be positive")
	}
	return &Monitor{eng: eng, interval: interval}
}

// Watch registers a target under a display name. Must be called before
// Start.
func (m *Monitor) Watch(name string, t Target) *Series {
	if m.started {
		panic("monitor: Watch after Start")
	}
	s := &Series{
		Name:     name,
		QueueLen: stats.NewTimeSeries(name + ".qlen"),
		InFlight: stats.NewTimeSeries(name + ".inflight"),
		Util:     stats.NewTimeSeries(name + ".util"),
	}
	if _, ok := t.(ErrorTarget); ok {
		s.Shed = stats.NewTimeSeries(name + ".shed")
		s.Dropped = stats.NewTimeSeries(name + ".dropped")
	}
	if _, ok := t.(HealthTarget); ok {
		s.Up = stats.NewTimeSeries(name + ".up")
	}
	if _, ok := t.(WasteTarget); ok {
		s.Canceled = stats.NewTimeSeries(name + ".canceled")
		s.Wasted = stats.NewTimeSeries(name + ".wasted")
	}
	m.targets = append(m.targets, t)
	m.series = append(m.series, s)
	return s
}

// WatchGauge registers a free-form gauge sampled on the monitor cadence,
// such as Sim.DomainUp for a failure domain or a NetState counter. Must
// be called before Start.
func (m *Monitor) WatchGauge(name string, fn func(now des.Time) float64) *stats.TimeSeries {
	if m.started {
		panic("monitor: WatchGauge after Start")
	}
	if fn == nil {
		panic("monitor: WatchGauge needs a sampling function")
	}
	ts := stats.NewTimeSeries(name)
	m.gaugeFns = append(m.gaugeFns, fn)
	m.gauges = append(m.gauges, ts)
	return ts
}

// Start schedules the first sample one interval from now.
func (m *Monitor) Start() {
	m.started = true
	m.eng.PostTo(m.eng.Now()+m.interval, m, des.KindMonitor)
}

// Fire takes one sample of every series and schedules the next.
func (m *Monitor) Fire(now des.Time, _ des.Kind) {
	for i, t := range m.targets {
		s := m.series[i]
		s.QueueLen.Record(now, float64(t.QueueLen()))
		s.InFlight.Record(now, float64(t.InFlight()))
		s.Util.Record(now, t.Utilization(now))
		if et, ok := t.(ErrorTarget); ok {
			s.Shed.Record(now, float64(et.Shed()))
			s.Dropped.Record(now, float64(et.Dropped()))
		}
		if ht, ok := t.(HealthTarget); ok {
			up := 1.0
			if ht.Down() {
				up = 0
			}
			s.Up.Record(now, up)
		}
		if wt, ok := t.(WasteTarget); ok {
			s.Canceled.Record(now, float64(wt.CanceledEarly()))
			s.Wasted.Record(now, float64(wt.WastedWork()))
		}
	}
	for i, fn := range m.gaugeFns {
		m.gauges[i].Record(now, fn(now))
	}
	m.eng.PostTo(now+m.interval, m, des.KindMonitor)
}

// Series returns the registered series in Watch order.
func (m *Monitor) AllSeries() []*Series { return m.series }
