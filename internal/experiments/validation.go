package experiments

import (
	"fmt"

	"uqsim/internal/des"
	"uqsim/internal/validate"
)

// validation runs the closed-form validation battery (the stand-in for
// the paper's real-testbed §IV): every row compares a simulated statistic
// to exact queueing theory. The battery is one function cell: its runs
// are validate's own.
var validation = Spec{
	Cells: func(o Opts) []Cell {
		_, dur := o.window(0, 20*des.Second)
		return []Cell{{Label: []string{"suite"}, Func: func() (any, error) {
			return validate.Suite(validate.Options{Seed: o.Seed, Duration: dur})
		}}}
	},
	Reduce: func(_ Opts, rs []Result) (*Table, error) {
		t := NewTable("Validation — simulator vs closed-form queueing theory",
			"check", "measured_ms", "expected_ms", "error", "tolerance", "verdict")
		t.Note = "substitute for the paper's real-server validation (no testbed available)"
		for _, c := range rs[0].Value.([]validate.Check) {
			verdict := "PASS"
			if !c.Pass() {
				verdict = "FAIL"
			}
			t.Add(
				c.Name,
				fmt.Sprintf("%.4f", c.Measured*1000),
				fmt.Sprintf("%.4f", c.Expected*1000),
				pct(c.Error()),
				fmt.Sprintf("%.0f%%", 100*c.Tolerance),
				verdict,
			)
		}
		return t, nil
	},
}
