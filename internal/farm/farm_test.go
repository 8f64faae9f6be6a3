package farm

// Integration tests over the real worker binary: the dispatcher runs
// in-process (so summaries and options are directly inspectable) and
// spawns actual `uqsim farm -worker` subprocesses, which it crashes,
// hangs, and SIGKILLs. The acceptance bar is the determinism contract:
// whatever the farm survives, the merged output must be byte-identical
// to a serial run.

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"uqsim/internal/config"
	"uqsim/internal/experiments"
)

var (
	workerBinOnce sync.Once
	workerBinPath string
	workerBinErr  error
)

// TestMain removes the worker binary once every test has used it.
func TestMain(m *testing.M) {
	code := m.Run()
	if workerBinErr == nil && workerBinPath != "" {
		os.RemoveAll(filepath.Dir(workerBinPath))
	}
	os.Exit(code)
}

// workerBin builds cmd/uqsim once per test process.
func workerBin(t *testing.T) string {
	t.Helper()
	workerBinOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			workerBinErr = err
			return
		}
		dir, err := os.MkdirTemp("", "uqsim-bin")
		if err != nil {
			workerBinErr = err
			return
		}
		workerBinPath = filepath.Join(dir, "uqsim")
		cmd := exec.Command("go", "build", "-o", workerBinPath, "./cmd/uqsim")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			workerBinErr = err
			workerBinPath = string(out)
		}
	})
	if workerBinErr != nil {
		t.Fatalf("building worker binary: %v\n%s", workerBinErr, workerBinPath)
	}
	return workerBinPath
}

func workerArgv(t *testing.T, cfgDir string) []string {
	return []string{workerBin(t), "farm", "-worker", "-config", cfgDir, "-heartbeat", "200ms"}
}

// serialCSV computes the sweep the slow way — one point after another in
// one process — as the byte-identity reference.
func serialCSV(t *testing.T, cfgDir string, from, to, step float64) string {
	t.Helper()
	table := experiments.SweepTable(cfgDir)
	grid, err := experiments.SweepGrid(from, to, step)
	if err != nil {
		t.Fatal(err)
	}
	dir := readDir(t, cfgDir)
	for _, qps := range grid {
		row, err := experiments.SweepRow(context.Background(), dir, qps, config.Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		table.Add(row...)
	}
	return table.CSV()
}

// readDir reads the config directory at path.
func readDir(t *testing.T, path string) *config.Dir {
	t.Helper()
	dir, err := config.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestExecutorRunsTheBytesItHashed: a worker checks every spec against
// the hash of the configuration it read at start, so it must also run
// those bytes. An edit to the directory afterwards — here client.json's
// seed — must not reach a job whose spec carries the original hash.
func TestExecutorRunsTheBytesItHashed(t *testing.T) {
	src, cfgDir := testConfigDir(t, "twotier"), t.TempDir()
	for _, name := range []string{"machines.json", "service.json", "graph.json", "path.json", "client.json"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cfgDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewSweepCampaign(cfgDir, 20000, 20000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(cfgDir)
	if err != nil {
		t.Fatal(err)
	}
	before, err := ex.Execute(jobs[0])
	if err != nil {
		t.Fatal(err)
	}

	client := filepath.Join(cfgDir, "client.json")
	data, err := os.ReadFile(client)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(data), `"seed": 42`, `"seed": 99`, 1)
	if edited == string(data) {
		t.Fatal("client.json has no seed 42 to edit")
	}
	if err := os.WriteFile(client, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	after, err := ex.Execute(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(after.Row, ","), strings.Join(before.Row, ","); got != want {
		t.Fatalf("row after the edit %s, want the row of the hashed bytes %s", got, want)
	}
}

func mergedCSV(t *testing.T, spool string) string {
	t.Helper()
	m, err := Merge(spool)
	if err != nil {
		t.Fatal(err)
	}
	return m.Table.CSV()
}

func auditComplete(t *testing.T, spool string) {
	t.Helper()
	rep, err := Audit(spool)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("journal audit failed:\n%s", rep)
	}
}

// TestFarmChaosMonkeyByteIdentical is the acceptance test: four workers,
// the dispatcher's chaos monkey SIGKILLing randomly chosen busy workers
// mid-lease, and the merged CSV must still equal the serial sweep byte
// for byte, with the journal accounting for every job exactly once.
func TestFarmChaosMonkeyByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	cfgDir := testConfigDir(t, "twotier")
	const from, to, step = 18000, 28000, 2000
	c, err := NewSweepCampaign(cfgDir, from, to, step)
	if err != nil {
		t.Fatal(err)
	}
	spool := t.TempDir()
	sum, err := Run(context.Background(), Options{
		Spool:       spool,
		Workers:     4,
		WorkerArgv:  workerArgv(t, cfgDir),
		LeaseTTL:    5 * time.Second,
		JobTimeout:  2 * time.Minute,
		KillWorkers: 3,
		Seed:        7,
		Logf:        t.Logf,
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Kills != 3 {
		t.Fatalf("chaos monkey killed %d workers, want 3", sum.Kills)
	}
	if sum.Interrupted || sum.Quarantined != 0 {
		t.Fatalf("summary: %+v", sum)
	}
	if got := sum.Committed + sum.Skipped; got != sum.Jobs {
		t.Fatalf("committed %d + skipped %d != %d jobs", sum.Committed, sum.Skipped, sum.Jobs)
	}
	auditComplete(t, spool)
	want := serialCSV(t, cfgDir, from, to, step)
	if got := mergedCSV(t, spool); got != want {
		t.Fatalf("merged CSV diverged from serial run\n--- farm ---\n%s--- serial ---\n%s", got, want)
	}
}

// TestFarmResumeByteIdentical interrupts a campaign mid-flight, then
// resumes it with a different worker count; the final merge must equal
// the serial run and skip every journaled job.
func TestFarmResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	cfgDir := testConfigDir(t, "twotier")
	const from, to, step = 17000, 26000, 1000
	c, err := NewSweepCampaign(cfgDir, from, to, step)
	if err != nil {
		t.Fatal(err)
	}
	spool := t.TempDir()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(1200*time.Millisecond))
	defer cancel()
	first, err := Run(ctx, Options{
		Spool:      spool,
		Workers:    2,
		WorkerArgv: workerArgv(t, cfgDir),
		LeaseTTL:   5 * time.Second,
		Logf:       t.Logf,
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Interrupted && first.Committed == first.Jobs {
		t.Log("first run finished before the interrupt; resume degenerates to a no-op")
	}

	second, err := Run(context.Background(), Options{
		Spool:      spool,
		Workers:    4,
		WorkerArgv: workerArgv(t, cfgDir),
		LeaseTTL:   5 * time.Second,
		Resume:     true,
		Logf:       t.Logf,
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if second.Skipped != first.Committed {
		t.Fatalf("resume skipped %d jobs; first run committed %d", second.Skipped, first.Committed)
	}
	if second.Skipped+second.Committed != second.Jobs {
		t.Fatalf("resume accounting: %+v", second)
	}
	auditComplete(t, spool)
	want := serialCSV(t, cfgDir, from, to, step)
	if got := mergedCSV(t, spool); got != want {
		t.Fatalf("resumed merge diverged from serial run\n--- farm ---\n%s--- serial ---\n%s", got, want)
	}

	// Running again without -resume must refuse: the journal already
	// holds this campaign.
	if _, err := Run(context.Background(), Options{
		Spool: spool, Workers: 1, WorkerArgv: workerArgv(t, cfgDir),
	}, c); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("rerun without resume: %v", err)
	}
}

// TestFarmPoisonQuarantine crashes one job's worker on every attempt; the
// job must be quarantined after MaxFailures tries with its full failure
// history, the rest of the campaign must finish, and the quarantined spec
// must replay cleanly in isolation once the hook is gone.
func TestFarmPoisonQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	cfgDir := testConfigDir(t, "twotier")
	t.Setenv(EnvTestCrash, "sweep:21000@99") // every attempt at that point dies
	c, err := NewSweepCampaign(cfgDir, 20000, 23000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	spool := t.TempDir()
	sum, err := Run(context.Background(), Options{
		Spool:       spool,
		Workers:     2,
		WorkerArgv:  workerArgv(t, cfgDir),
		LeaseTTL:    5 * time.Second,
		MaxFailures: 3,
		Logf:        t.Logf,
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Quarantined != 1 || sum.Committed != sum.Jobs-1 {
		t.Fatalf("summary: %+v", sum)
	}

	sp, err := OpenSpoolDir(spool)
	if err != nil {
		t.Fatal(err)
	}
	quar, err := sp.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(quar) != 1 {
		t.Fatalf("quarantine entries: %d", len(quar))
	}
	var entry *QuarantineEntry
	for _, q := range quar {
		entry = q
	}
	if entry.Job.Key() != "sweep:21000" || len(entry.Failures) != 3 {
		t.Fatalf("quarantine entry: %+v", entry)
	}
	for i, f := range entry.Failures {
		if f.Attempt != i+1 || !strings.Contains(f.Reason, "exit status 3") {
			t.Fatalf("failure %d: %+v", i, f)
		}
	}

	// The merge marks the campaign partial and names the poison job.
	m, err := Merge(spool)
	if err != nil {
		t.Fatal(err)
	}
	if m.Complete() || len(m.Quarantined) != 1 || m.Quarantined[0] != "sweep:21000" {
		t.Fatalf("merge: quarantined=%v complete=%v", m.Quarantined, m.Complete())
	}

	// Replay the quarantined spec in-process (no worker, no crash hook
	// path): it is an ordinary job and must produce the serial row.
	ex, err := NewExecutor(cfgDir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Execute(entry.Job)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.SweepRow(context.Background(), readDir(t, cfgDir), 21000, config.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(res.Row, ",") != strings.Join(want, ",") {
		t.Fatalf("replayed row %v, want %v", res.Row, want)
	}
}

// TestFarmHangWatchdogRequeues hangs one job's first attempt with
// heartbeats still flowing; only the per-job wall-clock watchdog can kill
// it. The retry must succeed and the merge must match the serial run.
func TestFarmHangWatchdogRequeues(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	cfgDir := testConfigDir(t, "twotier")
	t.Setenv(EnvTestHang, "sweep:19000@1") // first attempt hangs, second runs
	const from, to, step = 19000, 21000, 1000
	c, err := NewSweepCampaign(cfgDir, from, to, step)
	if err != nil {
		t.Fatal(err)
	}
	spool := t.TempDir()
	sum, err := Run(context.Background(), Options{
		Spool:      spool,
		Workers:    2,
		WorkerArgv: workerArgv(t, cfgDir),
		LeaseTTL:   5 * time.Second,
		JobTimeout: 2 * time.Second,
		Logf:       t.Logf,
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Requeues < 1 {
		t.Fatalf("hung job never requeued: %+v", sum)
	}
	if sum.Quarantined != 0 || sum.Committed != sum.Jobs {
		t.Fatalf("summary: %+v", sum)
	}
	auditComplete(t, spool)
	want := serialCSV(t, cfgDir, from, to, step)
	if got := mergedCSV(t, spool); got != want {
		t.Fatalf("merge after hang diverged from serial run\n--- farm ---\n%s--- serial ---\n%s", got, want)
	}
}
