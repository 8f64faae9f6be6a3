package experiments

import (
	"fmt"
	"math"

	"uqsim/internal/config"
)

// This file is the shared core of the load-sweep workflow: `uqsim sweep`
// runs these points serially, and the farm (internal/farm) fans the same
// points out across worker processes. Both paths must produce identical
// rows, byte for byte — the farm's determinism contract is that a merged
// campaign CSV equals the serial CLI's output at any worker count.

// SweepColumns is the header of a load-sweep table.
func SweepColumns() []string {
	return []string{"offered_qps", "goodput_qps", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "in_flight"}
}

// SweepGrid expands the inclusive load grid [from, to] in step increments.
// Both the farm's campaign expansion and `uqsim sweep` call this, so a
// sweep point is the same float64 in either path. It rejects every grid
// whose expansion would never end: a non-finite bound, from <= 0,
// step <= 0, to < from, and a step below the float ulp at the grid's
// magnitude (the load would stop advancing).
func SweepGrid(from, to, step float64) ([]float64, error) {
	for _, v := range []float64{from, to, step} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("grid bounds must be finite")
		}
	}
	if from <= 0 || step <= 0 || to < from {
		return nil, fmt.Errorf("grid needs from > 0, step > 0 and to >= from")
	}
	if to+step == to {
		return nil, fmt.Errorf("step %g is too small to advance the grid at %g", step, to)
	}
	var out []float64
	for qps := from; qps <= to+1e-9; qps += step {
		// A step of exactly half an ulp passes the check above when to
		// rounds up, yet stalls at a load that rounds down to even.
		if qps+step == qps {
			return nil, fmt.Errorf("step %g is too small to advance the grid at %g", step, qps)
		}
		out = append(out, qps)
	}
	return out, nil
}

// SweepRow measures one load point of the configured scenario and formats
// it as a table row in SweepColumns order. Each point loads a fresh
// simulation from dir at load qps with o's other overrides (same seed,
// same windows), so rows are independent: any subset can run anywhere,
// in any order, and still match a serial sweep with the same overrides.
func SweepRow(dir *config.Dir, qps float64, o config.Overrides) ([]string, error) {
	o.QPS = qps
	setup, err := dir.Load(o)
	if err != nil {
		return nil, err
	}
	rep, err := setup.Run()
	if err != nil {
		return nil, err
	}
	r := &Result{Label: []string{f0(qps)}, Rep: rep}
	return r.row(SweepColumns()[1:]...), nil
}

// SweepTable builds the table `uqsim sweep` prints, ready for rows from
// SweepRow.
func SweepTable(cfgDir string) *Table {
	return NewTable(fmt.Sprintf("Load sweep of %s", cfgDir), SweepColumns()...)
}
