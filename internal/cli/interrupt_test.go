package cli_test

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"uqsim/internal/chaos"
	"uqsim/internal/config"
)

// These tests exercise the full binary: a SIGINT landing mid-sweep must
// terminate the process nonzero while leaving only complete, parseable
// artifacts behind. They build the real command and signal its
// subcommands exactly like an operator's Ctrl-C.

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

var (
	uqsimOnce sync.Once
	uqsimPath string
	uqsimErr  error
)

// TestMain removes the shared binary once every test has used it.
func TestMain(m *testing.M) {
	code := m.Run()
	if uqsimPath != "" {
		os.RemoveAll(filepath.Dir(uqsimPath))
	}
	os.Exit(code)
}

// uqsimBin builds cmd/uqsim once per test process; every test runs its
// subcommands from that one binary.
func uqsimBin(t *testing.T) string {
	t.Helper()
	uqsimOnce.Do(func() {
		dir, err := os.MkdirTemp("", "uqsim-bin")
		if err != nil {
			uqsimErr = err
			return
		}
		uqsimPath = filepath.Join(dir, "uqsim")
		cmd := exec.Command("go", "build", "-o", uqsimPath, "./cmd/uqsim")
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			uqsimErr = fmt.Errorf("go build ./cmd/uqsim: %v\n%s", err, out)
		}
	})
	if uqsimErr != nil {
		t.Fatal(uqsimErr)
	}
	return uqsimPath
}

// uqsim returns a command running `uqsim <args>` from the repository root.
func uqsim(t *testing.T, args ...string) *exec.Cmd {
	cmd := exec.Command(uqsimBin(t), args...)
	cmd.Dir = repoRoot(t)
	return cmd
}

// syncBuffer is a buffer safe to poll while os/exec's copier goroutine
// is still writing the child's output into it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// interruptAndWait sends SIGINT and returns the exit code, killing the
// process outright if it ignores the signal.
func interruptAndWait(t *testing.T, cmd *exec.Cmd) int {
	t.Helper()
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("signal: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode()
		}
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
		return 0
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatal("process did not exit within 60s of SIGINT")
		return -1
	}
}

// TestChaosInterruptFlushesPartialCorpus: SIGINT mid-search must exit
// nonzero and leave a corpus in which every entry is complete — meta.json
// parses, records a violation, and sits beside a loadable faults.json.
func TestChaosInterruptFlushesPartialCorpus(t *testing.T) {
	corpusDir := filepath.Join(t.TempDir(), "corpus")

	cmd := uqsim(t, "chaos",
		"-config", "configs/metastable",
		"-trials", "9999", "-seed", "1",
		"-corpus", corpusDir, "-q")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Let the search archive at least one finding, then interrupt it with
	// thousands of trials still pending.
	waitFor(t, 2*time.Minute, "a complete corpus entry", func() bool {
		metas, err := filepath.Glob(filepath.Join(corpusDir, "*", "meta.json"))
		return err == nil && len(metas) > 0
	})
	code := interruptAndWait(t, cmd)
	if code == 0 {
		t.Fatalf("interrupted search exited 0; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "PARTIAL") && !strings.Contains(out.String(), "interrupted") {
		t.Fatalf("no interruption diagnostic in output:\n%s", out.String())
	}

	metas, err := filepath.Glob(filepath.Join(corpusDir, "*", "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) == 0 {
		t.Fatal("no corpus entries survived the interrupt")
	}
	for _, metaPath := range metas {
		dir := filepath.Dir(metaPath)
		raw, err := os.ReadFile(metaPath)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		var meta chaos.Meta
		if err := json.Unmarshal(raw, &meta); err != nil {
			t.Fatalf("%s: meta.json does not parse: %v", dir, err)
		}
		if meta.Violation == "" || meta.Fingerprint == "" {
			t.Fatalf("%s: incomplete meta: %+v", dir, meta)
		}
		raw, err = os.ReadFile(filepath.Join(dir, "faults.json"))
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		var ff config.FaultsFile
		if err := json.Unmarshal(raw, &ff); err != nil {
			t.Fatalf("%s: faults.json does not parse: %v", dir, err)
		}
	}
}

// TestExperimentsInterruptFlushesPartialCSV: SIGINT mid-sweep must exit
// nonzero; every CSV already in the output directory (including the
// interrupted experiment's atomically written partial table) parses.
func TestExperimentsInterruptFlushesPartialCSV(t *testing.T) {
	outDir := filepath.Join(t.TempDir(), "results")

	// chaos finishes in a few seconds; the rest keep the sweep busy long
	// enough for the signal to land mid-run.
	cmd := uqsim(t, "experiments", "-csv", "-out", outDir,
		"chaos", "scalability", "regionloss", "metastable")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 2*time.Minute, "the first experiment CSV", func() bool {
		files, _ := filepath.Glob(filepath.Join(outDir, "*.csv"))
		return len(files) > 0
	})
	code := interruptAndWait(t, cmd)
	if code == 0 {
		t.Fatalf("interrupted sweep exited 0; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "interrupted") {
		t.Fatalf("no interruption diagnostic in output:\n%s", out.String())
	}

	files, err := filepath.Glob(filepath.Join(outDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no CSV files survived the interrupt")
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(bytes.NewReader(raw)).ReadAll()
		if err != nil {
			t.Fatalf("%s does not parse as CSV: %v", f, err)
		}
		if len(rows) < 2 {
			t.Fatalf("%s has no data rows", f)
		}
	}
}

// TestSweepInterruptPrintsCompleteRows: SIGINT mid-sweep must exit
// nonzero with a PARTIAL diagnostic, and the table printed must contain
// only complete rows — the header plus one full row per finished point.
func TestSweepInterruptPrintsCompleteRows(t *testing.T) {
	// A wide grid keeps the sweep busy; -progress reports each finished
	// point on stderr so the test can interrupt after the first one.
	cmd := uqsim(t, "sweep",
		"-config", "configs/twotier",
		"-from", "15000", "-to", "80000", "-step", "1000",
		"-csv", "-progress")
	var stdout bytes.Buffer
	var stderr syncBuffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 2*time.Minute, "the first completed sweep point", func() bool {
		return strings.Contains(stderr.String(), "point 1/")
	})
	code := interruptAndWait(t, cmd)
	if code != 1 {
		t.Fatalf("interrupted sweep exited %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "PARTIAL") {
		t.Fatalf("no PARTIAL diagnostic:\n%s", stderr.String())
	}

	rows, err := csv.NewReader(bytes.NewReader(stdout.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("partial sweep output does not parse as CSV: %v\n%s", err, stdout.String())
	}
	if len(rows) < 2 {
		t.Fatalf("no complete data rows survived the interrupt:\n%s", stdout.String())
	}
	for i, row := range rows {
		if len(row) != len(rows[0]) {
			t.Fatalf("row %d is ragged: %v", i, row)
		}
	}
}

// TestTraceInterruptReportsPartialRun: SIGINT mid-trace must stop the
// simulation cleanly, still print the report header and collected
// traces, and exit 1 with a PARTIAL diagnostic.
func TestTraceInterruptReportsPartialRun(t *testing.T) {
	// An hour of virtual time takes far longer than the test to simulate,
	// so the signal always lands mid-run.
	cmd := uqsim(t, "trace",
		"-config", "configs/twotier",
		"-duration", "1h", "-sample", "64")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Give the run time to get well into the simulation before signaling.
	time.Sleep(2 * time.Second)
	code := interruptAndWait(t, cmd)
	if code != 1 {
		t.Fatalf("interrupted trace exited %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "PARTIAL") {
		t.Fatalf("no PARTIAL diagnostic:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "completions=") {
		t.Fatalf("truncated run did not report its partial results:\n%s", stdout.String())
	}
}
