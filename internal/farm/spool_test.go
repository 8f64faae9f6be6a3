package farm

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testCampaign builds a sweep campaign over a real config dir so the
// config hash is honest, but with a tiny grid.
func testCampaign(t *testing.T) *Campaign {
	t.Helper()
	c, err := NewSweepCampaign(testConfigDir(t, "twotier"), 1000, 3000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testConfigDir(t *testing.T, name string) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "configs", name))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestSpoolOpenAndReopen(t *testing.T) {
	dir := t.TempDir()
	c := testCampaign(t)

	if _, err := OpenSpool(dir, c, false); err != nil {
		t.Fatal(err)
	}
	// Reopening the same campaign without -resume must refuse: the caller
	// would silently skip every journaled job thinking it ran them.
	if _, err := OpenSpool(dir, c, false); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("reopen without resume: %v", err)
	}
	if _, err := OpenSpool(dir, c, true); err != nil {
		t.Fatalf("reopen with resume: %v", err)
	}
	// A different campaign must never share the spool.
	other := *c
	other.ToQPS += 1000
	if _, err := OpenSpool(dir, &other, true); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("different campaign accepted: %v", err)
	}
}

func TestSpoolCommitIdempotent(t *testing.T) {
	dir := t.TempDir()
	c := testCampaign(t)
	sp, err := OpenSpool(dir, c, false)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	r := &Result{Hash: jobs[0].Hash(), Job: jobs[0], Row: []string{"1000", "1001", "0.1", "0.1", "0.2", "0.3", "0"}}

	committed, err := sp.CommitResult(r)
	if err != nil || !committed {
		t.Fatalf("first commit: committed=%v err=%v", committed, err)
	}
	// A second commit of the same job must not overwrite the first.
	dup := *r
	dup.Row = []string{"9", "9", "9", "9", "9", "9", "9"}
	committed, err = sp.CommitResult(&dup)
	if err != nil || committed {
		t.Fatalf("duplicate commit: committed=%v err=%v", committed, err)
	}
	loaded, err := sp.Committed()
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded[r.Hash]; got == nil || got.Row[1] != "1001" {
		t.Fatalf("first write did not win: %+v", got)
	}

	// A result whose hash does not bind to its spec is rejected.
	bad := &Result{Hash: "deadbeef", Job: jobs[1], Row: r.Row}
	if _, err := sp.CommitResult(bad); err == nil {
		t.Fatal("unbound hash committed")
	}
}

func TestSpoolScanSkipsTornTempFiles(t *testing.T) {
	dir := t.TempDir()
	c := testCampaign(t)
	sp, err := OpenSpool(dir, c, false)
	if err != nil {
		t.Fatal(err)
	}
	// A SIGKILL mid-write leaves a .tmp- file; the scan must ignore it
	// instead of failing the whole journal replay.
	if err := os.WriteFile(filepath.Join(dir, "results", ".tmp-123456"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Committed(); err != nil {
		t.Fatalf("torn temp file broke the scan: %v", err)
	}
	// A torn *named* result file, however, is corruption and must surface.
	if err := os.WriteFile(filepath.Join(dir, "results", "abcd.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Committed(); err == nil {
		t.Fatal("corrupt result file passed the scan")
	}
}

func TestSpoolDecodersRejectDrift(t *testing.T) {
	// Unknown fields mean a newer writer or corruption; the strict
	// decoders refuse rather than silently dropping data.
	if _, err := DecodeResult([]byte(`{"hash":"x","job":{"kind":"sweep"},"extra":1}`)); err == nil {
		t.Fatal("unknown field accepted in result")
	}
	if _, err := DecodeQuarantine([]byte(`{"hash":"x","job":{"kind":"sweep"},"bogus":true}`)); err == nil {
		t.Fatal("unknown field accepted in quarantine entry")
	}
	if _, err := DecodeCampaign([]byte(`{"kind":"sweep","config_dir":"d","config_hash":"h","from_qps":1,"to_qps":1,"step_qps":1,"nope":0}`)); err == nil {
		t.Fatal("unknown field accepted in campaign")
	}
}

func TestAuditAccounting(t *testing.T) {
	dir := t.TempDir()
	c := testCampaign(t)
	sp, err := OpenSpool(dir, c, false)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}

	// Empty journal: every job missing.
	rep, err := Audit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || len(rep.Missing) != len(jobs) {
		t.Fatalf("empty spool: %+v", rep)
	}

	// Commit one, quarantine one: incomplete (one point still missing)
	// but with no conflicts or orphans.
	row := []string{"1", "2", "3", "4", "5", "6", "7"}
	if _, err := sp.CommitResult(&Result{Hash: jobs[0].Hash(), Job: jobs[0], Row: row}); err != nil {
		t.Fatal(err)
	}
	if err := sp.Quarantine(&QuarantineEntry{Hash: jobs[1].Hash(), Job: jobs[1]}); err != nil {
		t.Fatal(err)
	}
	rep, err = Audit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete() || len(rep.Missing) != len(jobs)-2 || len(rep.Conflicts) != 0 || len(rep.Orphans) != 0 {
		t.Fatalf("partial spool: %+v", rep)
	}

	// Finish the rest: complete.
	for _, j := range jobs[2:] {
		if _, err := sp.CommitResult(&Result{Hash: j.Hash(), Job: j, Row: row}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err = Audit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("finished spool not complete: %+v", rep)
	}

	// A job both committed and quarantined is a conflict.
	if err := sp.Quarantine(&QuarantineEntry{Hash: jobs[0].Hash(), Job: jobs[0]}); err != nil {
		t.Fatal(err)
	}
	rep, err = Audit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || len(rep.Conflicts) != 1 {
		t.Fatalf("conflict not detected: %+v", rep)
	}

	// A result for a job outside the campaign is an orphan.
	stray := JobSpec{Kind: KindSweep, ConfigHash: c.ConfigHash, Index: 99, QPS: 99000}
	if _, err := sp.CommitResult(&Result{Hash: stray.Hash(), Job: stray, Row: row}); err != nil {
		t.Fatal(err)
	}
	rep, err = Audit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Orphans) != 1 || !strings.Contains(rep.Orphans[0], stray.Hash()) {
		t.Fatalf("orphan not detected: %+v", rep)
	}
}

func TestCampaignJobsDeterministic(t *testing.T) {
	c := testCampaign(t)
	a, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 {
		t.Fatalf("expanded %d jobs, want 3", len(a))
	}
	for i := range a {
		if a[i].Hash() != b[i].Hash() {
			t.Fatalf("job %d hash unstable", i)
		}
	}
	// Distinct points must never collide.
	seen := map[string]bool{}
	for _, j := range a {
		if seen[j.Hash()] {
			t.Fatalf("hash collision at %s", j.Key())
		}
		seen[j.Hash()] = true
	}
}
