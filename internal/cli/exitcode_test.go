package cli_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"uqsim/internal/cli"
	"uqsim/internal/farm"
)

// TestExitCodeConvention pins the uniform exit-code contract across every
// subcommand: 0 ok, 1 interrupted/failed-partial, 2 usage, 3 findings.
// Scripts and CI branch on these; a subcommand drifting from the
// convention is a regression even if its output is fine.
func TestExitCodeConvention(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	root := repoRoot(t)

	// Spool fixtures for the farm audit cases, journaled without running
	// any simulation: a complete campaign, an incomplete one, and one
	// with an orphaned result (exactly-once accounting violated).
	row := []string{"1", "2", "3", "4", "5", "6", "7"}
	makeSpool := func(name string, commits int, orphan bool) string {
		dir := filepath.Join(t.TempDir(), name)
		c, err := farm.NewSweepCampaign(filepath.Join(root, "configs", "twotier"), 1000, 3000, 1000)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := farm.OpenSpool(dir, c, false)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := c.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs[:commits] {
			if _, err := sp.CommitResult(&farm.Result{Hash: j.Hash(), Job: j, Row: row}); err != nil {
				t.Fatal(err)
			}
		}
		if orphan {
			stray := farm.JobSpec{Kind: farm.KindSweep, ConfigHash: c.ConfigHash, Index: 99, QPS: 99000}
			if _, err := sp.CommitResult(&farm.Result{Hash: stray.Hash(), Job: stray, Row: row}); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	completeSpool := makeSpool("complete", 3, false)
	partialSpool := makeSpool("partial", 1, false)
	dirtySpool := makeSpool("dirty", 3, true)

	cases := []struct {
		name   string
		args   []string
		want   int
		output string // when set, must appear in the combined output
	}{
		// ---- 2: usage errors; nothing runs ----
		{"uqsim/no-subcommand", nil, cli.ExitUsage, ""},
		{"uqsim/unknown-subcommand", []string{"simulate"}, cli.ExitUsage, `unknown subcommand "simulate"`},
		{"uqsim/legacy-invocation", []string{"-config", "configs/twotier"}, cli.ExitUsage, "uqsim run -config configs/twotier"},
		{"uqsim/no-config", []string{"run"}, cli.ExitUsage, ""},
		{"sweep/no-config", []string{"sweep"}, cli.ExitUsage, ""},
		{"sweep/bad-grid", []string{"sweep", "-config", "configs/twotier", "-from", "2000", "-to", "1000"}, cli.ExitUsage, ""},
		{"sweep/inf-grid", []string{"sweep", "-config", "configs/twotier", "-to", "Inf"}, cli.ExitUsage, "finite"},
		{"sweep/sub-ulp-step", []string{"sweep", "-config", "configs/twotier", "-from", "20000", "-to", "30000", "-step", "1e-13"}, cli.ExitUsage, "too small"},
		{"trace/no-config", []string{"trace"}, cli.ExitUsage, ""},
		{"chaos/no-config", []string{"chaos"}, cli.ExitUsage, ""},
		{"experiments/no-args", []string{"experiments"}, cli.ExitUsage, ""},
		{"farm/no-config", []string{"farm"}, cli.ExitUsage, ""},
		{"farm/bad-kind", []string{"farm", "-config", "configs/twotier", "-spool", filepath.Join(t.TempDir(), "s"), "-kind", "nope"}, cli.ExitUsage, ""},
		{"farm/audit-no-spool", []string{"farm", "-audit"}, cli.ExitUsage, ""},
		{"farm/replay-no-config", []string{"farm", "-replay", "x.json"}, cli.ExitUsage, ""},

		// ---- 0: completed runs ----
		{"uqsim/ok", []string{"run", "-config", "configs/twotier", "-warmup", "10ms", "-duration", "50ms"}, cli.ExitOK, ""},
		{"sweep/ok", []string{"sweep", "-config", "configs/twotier", "-from", "20000", "-to", "20000", "-step", "1000", "-csv"}, cli.ExitOK, ""},
		{"trace/ok", []string{"trace", "-config", "configs/twotier", "-duration", "100ms"}, cli.ExitOK, ""},
		{"experiments/list", []string{"experiments", "-list"}, cli.ExitOK, ""},
		{"farm/audit-complete", []string{"farm", "-audit", "-spool", completeSpool}, cli.ExitOK, ""},

		// ---- 1: interrupted or incomplete; artifacts partial ----
		{"sweep/max-wall", []string{"sweep", "-config", "configs/twotier", "-from", "15000", "-to", "80000", "-step", "1000", "-max-wall", "500ms"}, cli.ExitPartial, ""},
		{"farm/audit-incomplete", []string{"farm", "-audit", "-spool", partialSpool}, cli.ExitPartial, ""},

		// ---- 3: the run succeeded and surfaced findings ----
		{"farm/audit-orphan", []string{"farm", "-audit", "-spool", dirtySpool}, cli.ExitFindings, ""},
		// A job past its budget is stopped and quarantined: a finding.
		{"farm/poison-quarantine", []string{
			"farm", "-config", "configs/twotier",
			"-from", "20000", "-to", "20000", "-step", "1000",
			"-job-timeout", "1ns", "-q",
			"-spool", filepath.Join(t.TempDir(), "poison"),
		}, cli.ExitFindings, "1 quarantined"},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cmd := uqsim(t, tc.args...)
			out, err := cmd.CombinedOutput()
			code := 0
			if exit, ok := err.(*exec.ExitError); ok {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatalf("run: %v", err)
			}
			if code != tc.want {
				t.Fatalf("uqsim %v exited %d, want %d\n%s", tc.args, code, tc.want, out)
			}
			if !bytes.Contains(out, []byte(tc.output)) {
				t.Fatalf("uqsim %v output lacks %q:\n%s", tc.args, tc.output, out)
			}
		})
	}
}

// TestTraceQPSOverridesSessions: -qps replaces whatever load the config
// declares, sessions included. A two-tier config whose client is a
// session population, traced with -qps at the two-tier's own open-loop
// rate, must print exactly what the open-loop config prints.
func TestTraceQPSOverridesSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	src := filepath.Join(repoRoot(t), "configs", "twotier")
	dir := t.TempDir()
	for _, name := range []string{"machines.json", "service.json", "graph.json", "path.json", "client.json"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "client.json" {
			var client map[string]any
			if err := json.Unmarshal(data, &client); err != nil {
				t.Fatal(err)
			}
			if client["qps"] != 20000.0 {
				t.Fatalf("configs/twotier client qps = %v; the test assumes 20000", client["qps"])
			}
			delete(client, "qps")
			client["sessions"] = map[string]any{
				"users":    40,
				"journeys": []any{map[string]any{"name": "get", "steps": []any{map[string]any{"tree": "get"}}}},
			}
			if data, err = json.Marshal(client); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	trace := func(args ...string) string {
		t.Helper()
		out, err := uqsim(t, append([]string{"trace", "-duration", "100ms"}, args...)...).Output()
		if err != nil {
			t.Fatalf("uqsim trace %v: %v", args, err)
		}
		return string(out)
	}
	sessions := trace("-config", dir)
	overridden := trace("-config", dir, "-qps", "20000")
	openLoop := trace("-config", "configs/twotier")
	if overridden != openLoop {
		t.Fatalf("-qps 20000 over a sessions client:\n%s\nwant the open-loop run:\n%s", overridden, openLoop)
	}
	if strings.SplitN(sessions, "\n", 2)[0] == strings.SplitN(openLoop, "\n", 2)[0] {
		t.Fatalf("the sessions config already runs like the open loop; the test proves nothing:\n%s", sessions)
	}
}
