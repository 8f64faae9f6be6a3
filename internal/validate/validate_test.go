package validate

import (
	"context"
	"testing"

	"uqsim/internal/des"
)

func TestCheckPassLogic(t *testing.T) {
	if !(Check{Measured: 1.05, Expected: 1.0, Tolerance: 0.08}).Pass() {
		t.Fatal("5% off with 8% tolerance should pass")
	}
	if (Check{Measured: 1.2, Expected: 1.0, Tolerance: 0.08}).Pass() {
		t.Fatal("20% off should fail")
	}
	if !(Check{Measured: 0.001, Expected: 0, Tolerance: 0.01}).Pass() {
		t.Fatal("zero-expected case")
	}
	c := Check{Measured: 1.1, Expected: 1.0}
	if e := c.Error(); e < 0.099 || e > 0.101 {
		t.Fatalf("error = %v", e)
	}
}

// short runs a check set with a reduced window; tolerances in the checks
// assume the default 20s, so use a 10s window and pad with a small factor
// by asserting Error() < Tolerance*1.5.
func assertChecks(t *testing.T, cs []Check, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		if c.Error() > c.Tolerance*1.5 {
			t.Errorf("%s: measured %v vs expected %v (err %.1f%%)",
				c.Name, c.Measured, c.Expected, 100*c.Error())
		}
	}
}

func opts() Options { return Options{Seed: 3, Duration: 10 * des.Second} }

func TestMM1Validation(t *testing.T) {
	cs, err := MM1(context.Background(), opts(), 0.7)
	assertChecks(t, cs, err)
}

func TestMMkValidation(t *testing.T) {
	cs, err := MMk(context.Background(), opts(), 4, 0.7)
	assertChecks(t, cs, err)
}

func TestMD1Validation(t *testing.T) {
	cs, err := MD1(context.Background(), opts(), 0.8)
	assertChecks(t, cs, err)
}

func TestMG1ErlangValidation(t *testing.T) {
	cs, err := MG1Erlang(context.Background(), opts(), 0.8)
	assertChecks(t, cs, err)
}

func TestForkJoinValidation(t *testing.T) {
	cs, err := ForkJoin(context.Background(), opts(), 8)
	assertChecks(t, cs, err)
}

func TestSuiteRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite is slow")
	}
	cs, err := Suite(context.Background(), Options{Seed: 3, Duration: 5 * des.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) < 15 {
		t.Fatalf("suite produced %d checks", len(cs))
	}
	failed := 0
	for _, c := range cs {
		if c.Error() > c.Tolerance*2 { // 5s window: loose gate
			t.Logf("loose check: %s err %.1f%%", c.Name, 100*c.Error())
			failed++
		}
	}
	if failed > 2 {
		t.Fatalf("%d of %d checks far off", failed, len(cs))
	}
}
