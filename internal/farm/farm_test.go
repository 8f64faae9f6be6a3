package farm

// Campaign tests: Run executes every job in this process on the cell
// pool. The acceptance bar is the determinism contract: whatever the farm
// survives — an interrupt, a panicking job, a job that never finishes —
// the journal accounts for every job once and the merged output is
// byte-identical to a serial run. Killing the whole process and resuming
// is tested on the built binary in internal/cli.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uqsim/internal/config"
	"uqsim/internal/experiments"
)

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

// TestExecutorRunsTheBytesItHashed: an executor checks every spec against
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
	before, err := ex.Execute(context.Background(), jobs[0])
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
	after, err := ex.Execute(context.Background(), jobs[0])
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

// TestFarmResumeByteIdentical interrupts a campaign after its first
// commit, while later jobs are running, then resumes it; the jobs the
// interrupt cut short must journal nothing, and the final merge must
// equal the serial run and skip every journaled job.
func TestFarmResumeByteIdentical(t *testing.T) {
	cfgDir := testConfigDir(t, "twotier")
	const from, to, step = 17000, 26000, 1000
	c, err := NewSweepCampaign(cfgDir, from, to, step)
	if err != nil {
		t.Fatal(err)
	}
	spool := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first, err := Run(ctx, Options{Spool: spool, Logf: func(format string, args ...any) {
		t.Logf(format, args...)
		if strings.Contains(format, "committed") {
			cancel()
		}
	}}, c)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Interrupted || first.Committed == 0 || first.Committed == first.Jobs {
		t.Fatalf("first run was to stop part-way: %+v", first)
	}

	second, err := Run(context.Background(), Options{Spool: spool, Resume: true, Logf: t.Logf}, c)
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
	if _, err := Run(context.Background(), Options{Spool: spool}, c); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("rerun without resume: %v", err)
	}
}

// substitute runs every job through a fresh executor over cfgDir, except
// the job whose key is poison, which runs bad instead.
func substitute(t *testing.T, cfgDir, poison string, bad jobFunc) jobFunc {
	t.Helper()
	ex, err := NewExecutor(cfgDir)
	if err != nil {
		t.Fatal(err)
	}
	return func(ctx context.Context, spec JobSpec) (*Result, error) {
		if spec.Key() == poison {
			return bad(ctx, spec)
		}
		return ex.Execute(ctx, spec)
	}
}

// quarantinedOnce runs a light 1k-4k QPS campaign with job sweep:2000
// replaced by bad and checks the accounting: that job is quarantined at once with
// one failure record whose reason contains why, every other job commits,
// the merge names the poison job, and the quarantined spec replays clean
// through an executor, as -replay runs it.
func quarantinedOnce(t *testing.T, o Options, bad jobFunc, why string) {
	t.Helper()
	cfgDir := testConfigDir(t, "twotier")
	c, err := NewSweepCampaign(cfgDir, 1000, 4000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	o.Spool, o.Logf = t.TempDir(), t.Logf
	sum, err := run(context.Background(), o, c, substitute(t, cfgDir, "sweep:2000", bad))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Quarantined != 1 || sum.Committed != sum.Jobs-1 || sum.Interrupted {
		t.Fatalf("summary: %+v", sum)
	}
	rep, err := Audit(o.Spool)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() || rep.Quarantined != 1 {
		t.Fatalf("journal audit:\n%s", rep)
	}

	sp, err := OpenSpoolDir(o.Spool)
	if err != nil {
		t.Fatal(err)
	}
	quar, err := sp.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	var entry *QuarantineEntry
	for _, q := range quar {
		entry = q
	}
	if entry == nil || entry.Job.Key() != "sweep:2000" || len(entry.Failures) != 1 {
		t.Fatalf("quarantine entry: %+v", entry)
	}
	if f := entry.Failures[0]; f.Attempt != 1 || !strings.Contains(f.Reason, why) {
		t.Fatalf("failure record %+v, want a reason containing %q", f, why)
	}

	m, err := Merge(o.Spool)
	if err != nil {
		t.Fatal(err)
	}
	if m.Complete() || len(m.Quarantined) != 1 || m.Quarantined[0] != "sweep:2000" {
		t.Fatalf("merge: quarantined=%v complete=%v", m.Quarantined, m.Complete())
	}

	ex, err := NewExecutor(cfgDir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Execute(context.Background(), entry.Job)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.SweepRow(context.Background(), readDir(t, cfgDir), 2000, config.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(res.Row, ",") != strings.Join(want, ",") {
		t.Fatalf("replayed row %v, want %v", res.Row, want)
	}
}

// TestFarmPoisonQuarantine: a job that panics is recovered, quarantined
// on its first failure (an in-process failure repeats exactly, so a retry
// buys nothing), and the rest of the campaign finishes.
func TestFarmPoisonQuarantine(t *testing.T) {
	quarantinedOnce(t, Options{}, func(context.Context, JobSpec) (*Result, error) {
		panic("poison job")
	}, "panic: poison job")
}

// TestFarmHangWatchdogQuarantines: a job that never finishes on its own
// is stopped by its per-job deadline and quarantined, and the rest of the
// campaign finishes.
func TestFarmHangWatchdogQuarantines(t *testing.T) {
	quarantinedOnce(t, Options{JobTimeout: time.Second}, func(ctx context.Context, _ JobSpec) (*Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, "wall-clock budget")
}
