package cli_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputIndependentOfWidth runs each campaign command on one core and
// on two. The cell pool's width follows GOMAXPROCS, and results come out
// in cell order, so stdout — and chaos's corpus, file for file — must be
// byte-identical.
func TestOutputIndependentOfWidth(t *testing.T) {
	run := func(procs string, args ...string) []byte {
		t.Helper()
		cmd := uqsim(t, args...)
		cmd.Env = append(cmd.Environ(), "GOMAXPROCS="+procs)
		out, err := cmd.Output()
		if code := cmd.ProcessState.ExitCode(); err != nil && code != 3 {
			t.Fatalf("GOMAXPROCS=%s uqsim %v: %v", procs, args, err)
		}
		return out
	}
	same := func(what string, one, two []byte) {
		t.Helper()
		if !bytes.Equal(one, two) {
			t.Errorf("%s differs between GOMAXPROCS=1 and 2:\n--- 1 ---\n%s\n--- 2 ---\n%s", what, one, two)
		}
	}

	same("uqsim sweep -csv", serialSweep(t), run("2", append([]string{"sweep", "-csv"}, farmGrid...)...))

	exps := []string{"experiments", "-csv", "-scale", "0.05", "resilience", "overload"}
	same("uqsim experiments -csv", run("1", exps...), run("2", exps...))

	corpus := t.TempDir()
	chaos := func(procs string) []byte {
		return run(procs, "chaos", "-config", "configs/metastable", "-trials", "4", "-seed", "1",
			"-corpus", filepath.Join(corpus, procs))
	}
	one, two := chaos("1"), chaos("2")
	same("uqsim chaos", bytes.ReplaceAll(one, []byte(filepath.Join(corpus, "1")), nil),
		bytes.ReplaceAll(two, []byte(filepath.Join(corpus, "2")), nil))
	files, err := filepath.Glob(filepath.Join(corpus, "1", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("the chaos search archived no finding; the corpus comparison proves nothing")
	}
	for _, f := range files {
		rel, _ := filepath.Rel(filepath.Join(corpus, "1"), f)
		a, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(corpus, "2", rel))
		if err != nil {
			t.Fatal(err)
		}
		same("corpus file "+rel, a, b)
	}
	if two, _ := filepath.Glob(filepath.Join(corpus, "2", "*", "*")); len(two) != len(files) {
		t.Errorf("corpus at GOMAXPROCS=2 holds %d files, at 1 %d", len(two), len(files))
	}
}
