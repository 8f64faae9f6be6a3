package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"uqsim/internal/des"
	"uqsim/internal/sim"
	"uqsim/internal/validate"
)

// Spec is one experiment: the independent runs it is made of, and how
// their results become its table.
type Spec struct {
	// Cells lists the runs, in the order Reduce reads their results.
	Cells func(Opts) []Cell
	// Reduce turns the results, in Cells order, into the table.
	Reduce func(Opts, []Result) (*Table, error)
}

// Cell is one independent run. A simulation cell sets Build, a warm-up
// and a window; Read, when set, reads after the run what the Report does
// not carry. A run that is not a simulation (BigHouse's collapsed queue,
// the closed-form suite, the chaos pipeline) sets Func instead.
type Cell struct {
	// Label names the cell in errors; a table with one row per cell
	// leads the row with it.
	Label          []string
	Build          func() (*sim.Sim, error)
	Warmup, Window des.Time
	Read           func(*sim.Sim, *sim.Report) any
	Func           func() (any, error)
}

// Result is what one cell's run left.
type Result struct {
	Label []string
	Rep   *sim.Report // nil for a Func cell
	Value any         // what Read or Func returned
	// Wall is the run alone (Sim.Run, or Func), not the build.
	Wall time.Duration
	// Events is the engine's processed count (0 for a Func cell).
	Events uint64
}

// cols are row cells a cell formats itself, by column name: Result.row
// reads them before the shared column table.
type cols map[string]string

// execute runs cells one after another. It is the only code in the
// package that builds a cell, runs it, checks its conservation identity
// and times it.
func execute(id string, cells []Cell) ([]Result, error) {
	rs := make([]Result, len(cells))
	for i, c := range cells {
		r, err := runCell(c)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %s: %w", id, strings.Join(c.Label, "/"), err)
		}
		rs[i] = r
	}
	return rs, nil
}

func runCell(c Cell) (r Result, err error) {
	r.Label = c.Label
	if c.Func != nil {
		start := time.Now()
		r.Value, err = c.Func()
		r.Wall = time.Since(start)
		return r, err
	}
	s, err := c.Build()
	if err != nil {
		return r, err
	}
	start := time.Now()
	r.Rep, err = s.Run(c.Warmup, c.Window)
	r.Wall = time.Since(start)
	if err == nil {
		err = validate.Conservation(r.Rep)
	}
	if err != nil {
		return r, err
	}
	r.Events = s.Engine().Processed()
	if c.Read != nil {
		r.Value = c.Read(s, r.Rep)
	}
	return r, nil
}

// Cost totals what an experiment's cells cost.
type Cost struct {
	Cells  int
	Events uint64
	Wall   time.Duration // summed over the cells' runs
}

func (c Cost) String() string {
	rate := 0.0
	if c.Wall > 0 {
		rate = float64(c.Events) / c.Wall.Seconds()
	}
	return fmt.Sprintf("%d cells, %d events in %v, %.0f events/s",
		c.Cells, c.Events, c.Wall.Round(time.Millisecond), rate)
}

func f0(v float64) string     { return fmt.Sprintf("%.0f", v) }
func ms(d des.Time) string    { return fmt.Sprintf("%.3f", d.Millis()) }
func pct(frac float64) string { return fmt.Sprintf("%.1f%%", 100*frac) }

// columns formats the cells read straight off a result, by column name:
// one format per name in every table. A table that formats a column its
// own way keeps that format in its cells' cols (fig14's p99_ms is %.2f).
var columns = map[string]func(*Result) string{
	"offered_qps":    func(r *Result) string { return f0(r.Rep.OfferedQPS) },
	"effective_qps":  func(r *Result) string { return f0(r.Rep.OfferedQPS) },
	"goodput_qps":    func(r *Result) string { return f0(r.Rep.GoodputQPS) },
	"saturation_qps": func(r *Result) string { return f0(r.Rep.GoodputQPS) },
	"mean_ms":        func(r *Result) string { return ms(r.Rep.Latency.Mean()) },
	"p50_ms":         func(r *Result) string { return ms(r.Rep.Latency.P50()) },
	"p95_ms":         func(r *Result) string { return ms(r.Rep.Latency.P95()) },
	"p99_ms":         func(r *Result) string { return ms(r.Rep.Latency.P99()) },
	"p999_ms":        func(r *Result) string { return ms(r.Rep.Latency.P999()) },
	"timeout_rate": func(r *Result) string {
		return pct(float64(r.Rep.Timeouts) / max(1, float64(r.Rep.Completions+r.Rep.Timeouts)))
	},
	"requests":          func(r *Result) string { return fmt.Sprint(r.Rep.Completions) },
	"timeouts":          func(r *Result) string { return fmt.Sprint(r.Rep.Timeouts) },
	"deadline":          func(r *Result) string { return fmt.Sprint(r.Rep.DeadlineExpired) },
	"shed":              func(r *Result) string { return fmt.Sprint(r.Rep.Shed) },
	"dropped":           func(r *Result) string { return fmt.Sprint(r.Rep.Dropped) },
	"retries":           func(r *Result) string { return fmt.Sprint(r.Rep.Retries) },
	"hedges":            func(r *Result) string { return fmt.Sprint(r.Rep.HedgesIssued) },
	"wasted":            func(r *Result) string { return fmt.Sprint(r.Rep.WastedWork) },
	"canceled":          func(r *Result) string { return fmt.Sprint(r.Rep.CanceledWork) },
	"in_flight":         func(r *Result) string { return fmt.Sprint(r.Rep.InFlight) },
	"in_flight_at_end":  func(r *Result) string { return fmt.Sprint(r.Rep.InFlight) },
	"xregion_calls":     func(r *Result) string { return fmt.Sprint(r.Rep.CrossRegionCalls) },
	"stale_reads":       func(r *Result) string { return fmt.Sprint(r.Rep.StaleReads) },
	"sample_rate":       func(r *Result) string { return fmt.Sprintf("%g", r.Rep.SampleRate) },
	"bg_completions":    func(r *Result) string { return fmt.Sprint(r.Rep.BackgroundCompletions) },
	"bg_shed":           func(r *Result) string { return fmt.Sprint(r.Rep.BackgroundShed) },
	"bg_unreachable":    func(r *Result) string { return fmt.Sprint(r.Rep.BackgroundUnreachable) },
	"saturated_epochs":  func(r *Result) string { return fmt.Sprint(r.Rep.SaturatedEpochs) },
	"bg_arr":            func(r *Result) string { return fmt.Sprint(r.Rep.BackgroundArrivals) },
	"bg_arrivals":       func(r *Result) string { return fmt.Sprint(r.Rep.BackgroundArrivals) },
	"bg_lost_by_cause":  func(r *Result) string { return formatByCause(r.Rep.BackgroundShedByCause) },
	"leaked":            func(r *Result) string { return fmt.Sprint(validate.Leaked(r.Rep)) },
	"events":            func(r *Result) string { return fmt.Sprint(r.Events) },
	"wall_ms":           func(r *Result) string { return fmt.Sprint(r.Wall.Milliseconds()) },
	"events_per_wall_s": func(r *Result) string { return f0(float64(r.Events) / r.Wall.Seconds()) },
}

// row is the result's label followed by the named columns, each from the
// cell's own cols when it has that column, else from the column table.
func (r *Result) row(names ...string) []string {
	own, _ := r.Value.(cols)
	row := slices.Clone(r.Label)
	for _, name := range names {
		if v, ok := own[name]; ok {
			row = append(row, v)
		} else if f, ok := columns[name]; ok {
			row = append(row, f(r))
		} else {
			panic("experiments: no column " + name)
		}
	}
	return row
}

// rows is the reducer of a table with one row per cell: the header names
// the label columns first, then the columns row looks up.
func rows(title, note string, header ...string) func(Opts, []Result) (*Table, error) {
	return func(_ Opts, rs []Result) (*Table, error) {
		return table(title, note, header, rs), nil
	}
}

func table(title, note string, header []string, rs []Result) *Table {
	t := NewTable(title, slices.Clone(header)...) // every table owns its header
	t.Note = note
	for i := range rs {
		t.Add(rs[i].row(header[len(rs[i].Label):]...)...)
	}
	return t
}
