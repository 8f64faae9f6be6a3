package experiments

import (
	"fmt"

	"uqsim/internal/des"
	"uqsim/internal/validate"
)

// Validation runs the closed-form validation battery (the stand-in for the
// paper's real-testbed §IV): every row compares a simulated statistic to
// exact queueing theory.
func Validation(o Opts) (*Table, error) {
	t := NewTable("Validation — simulator vs closed-form queueing theory",
		"check", "measured_ms", "expected_ms", "error", "tolerance", "verdict")
	t.Note = "substitute for the paper's real-server validation (no testbed available)"
	_, dur := o.window(0, 20*des.Second)
	checks, err := validate.Suite(validate.Options{Seed: o.Seed, Duration: dur})
	if err != nil {
		return nil, err
	}
	for _, c := range checks {
		verdict := "PASS"
		if !c.Pass() {
			verdict = "FAIL"
		}
		t.Add(
			c.Name,
			fmt.Sprintf("%.4f", c.Measured*1000),
			fmt.Sprintf("%.4f", c.Expected*1000),
			fmt.Sprintf("%.1f%%", 100*c.Error()),
			fmt.Sprintf("%.0f%%", 100*c.Tolerance),
			verdict,
		)
	}
	return t, nil
}
