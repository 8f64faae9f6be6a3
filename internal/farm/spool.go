package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"uqsim/internal/atomicfile"
	"uqsim/internal/chaos"
)

// The spool is the campaign's durable journal, laid out as plain files so
// a crash at any instant leaves a directory that replays cleanly:
//
//	spool/
//	  campaign.json           the campaign document (journal head)
//	  results/<hash>.json     one committed result per finished job
//	  quarantine/<hash>.json  poison jobs withdrawn after K failures
//
// Every file is written via a same-directory temp file and rename (the
// chaos-corpus pattern), so a SIGKILL mid-write leaves at worst an
// ignorable .tmp- file, never a truncated record. A job's state is
// derived, not stored: committed if its result file exists, quarantined
// if its quarantine file exists, pending otherwise — which is exactly
// what -resume replays.

// Result is one committed job outcome. Only deterministic fields are
// journaled (no wall-clock timings), so a result file's bytes are a pure
// function of the job spec and the configuration.
type Result struct {
	Hash string  `json:"hash"`
	Job  JobSpec `json:"job"`
	// Row is a sweep point's table row, in experiments.SweepColumns order.
	Row []string `json:"row,omitempty"`
	// Chaos is a chaos trial's outcome.
	Chaos *ChaosOutcome `json:"chaos,omitempty"`
}

// ChaosOutcome is the deterministic summary of one chaos trial.
type ChaosOutcome struct {
	// Events is the explored schedule's fault-event count.
	Events int `json:"events"`
	// Violation, Detail, and EventsAfter describe the shrunk finding;
	// Violation is empty when every invariant held.
	Violation   string `json:"violation,omitempty"`
	Detail      string `json:"detail,omitempty"`
	EventsAfter int    `json:"events_after,omitempty"`
	// Entry is the portable corpus artifact (nil when no violation).
	Entry *chaos.Entry `json:"entry,omitempty"`
}

// FailureRecord is one failed attempt at a job.
type FailureRecord struct {
	Attempt int    `json:"attempt"`
	Reason  string `json:"reason"`
}

// QuarantineEntry is a poison job withdrawn from the queue: the spec (so
// -replay can re-run it in isolation) plus the failure history that
// condemned it.
type QuarantineEntry struct {
	Hash     string          `json:"hash"`
	Job      JobSpec         `json:"job"`
	Failures []FailureRecord `json:"failures"`
}

// Spool is an open spool directory.
type Spool struct {
	Dir      string
	campaign *Campaign
}

// OpenSpool creates or reopens the spool at dir for campaign c. A fresh
// directory is initialized with the campaign document. Reopening requires
// resume and an identical campaign — a spool journaled for one campaign
// must never absorb results from another.
func OpenSpool(dir string, c *Campaign, resume bool) (*Spool, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	for _, sub := range []string{"", "results", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("farm: creating spool: %w", err)
		}
	}
	want, err := encodeCampaign(c)
	if err != nil {
		return nil, err
	}
	head := filepath.Join(dir, "campaign.json")
	if have, err := os.ReadFile(head); err == nil {
		if !bytes.Equal(have, want) {
			return nil, fmt.Errorf("farm: spool %s already journals a different campaign; use a fresh -spool directory", dir)
		}
		if !resume {
			return nil, fmt.Errorf("farm: spool %s already holds this campaign; pass -resume to finish it", dir)
		}
	} else if os.IsNotExist(err) {
		if err := atomicfile.Write(head, want); err != nil {
			return nil, fmt.Errorf("farm: %w", err)
		}
	} else {
		return nil, fmt.Errorf("farm: reading %s: %w", head, err)
	}
	return &Spool{Dir: dir, campaign: c}, nil
}

// OpenSpoolDir reopens an existing spool from its journaled campaign
// alone (for audit and merge, which must not need the original flags).
func OpenSpoolDir(dir string) (*Spool, error) {
	data, err := os.ReadFile(filepath.Join(dir, "campaign.json"))
	if err != nil {
		return nil, fmt.Errorf("farm: %s is not a spool: %w", dir, err)
	}
	c, err := DecodeCampaign(data)
	if err != nil {
		return nil, fmt.Errorf("farm: %s/campaign.json: %w", dir, err)
	}
	return &Spool{Dir: dir, campaign: c}, nil
}

// Campaign returns the journaled campaign document.
func (s *Spool) Campaign() *Campaign { return s.campaign }

// CommitResult journals one finished job, idempotently: the first commit
// of a hash wins and every later one reports committed=false. Retried
// jobs and duplicated completions therefore cannot double-count — the
// journal holds at most one result per spec.
func (s *Spool) CommitResult(r *Result) (committed bool, err error) {
	if r.Hash != r.Job.Hash() {
		return false, fmt.Errorf("farm: result hash %s does not match its spec (%s)", r.Hash, r.Job.Hash())
	}
	path := filepath.Join(s.Dir, "results", r.Hash+".json")
	if _, err := os.Stat(path); err == nil {
		return false, nil
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return false, fmt.Errorf("farm: encoding result: %w", err)
	}
	if err := atomicfile.Write(path, append(data, '\n')); err != nil {
		return false, fmt.Errorf("farm: %w", err)
	}
	return true, nil
}

// Quarantine journals a poison job. Like results, quarantine entries are
// keyed by hash and idempotent.
func (s *Spool) Quarantine(q *QuarantineEntry) error {
	if q.Hash != q.Job.Hash() {
		return fmt.Errorf("farm: quarantine hash %s does not match its spec (%s)", q.Hash, q.Job.Hash())
	}
	data, err := json.MarshalIndent(q, "", "  ")
	if err != nil {
		return fmt.Errorf("farm: encoding quarantine entry: %w", err)
	}
	if err := atomicfile.Write(filepath.Join(s.Dir, "quarantine", q.Hash+".json"), append(data, '\n')); err != nil {
		return fmt.Errorf("farm: %w", err)
	}
	return nil
}

// Committed loads every journaled result, keyed by job hash.
func (s *Spool) Committed() (map[string]*Result, error) {
	out := make(map[string]*Result)
	err := s.scan("results", func(hash string, data []byte) error {
		r, err := DecodeResult(data)
		if err != nil {
			return err
		}
		if r.Hash != hash {
			return fmt.Errorf("journaled under %s but records hash %s", hash, r.Hash)
		}
		out[hash] = r
		return nil
	})
	return out, err
}

// Quarantined loads every quarantine entry, keyed by job hash.
func (s *Spool) Quarantined() (map[string]*QuarantineEntry, error) {
	out := make(map[string]*QuarantineEntry)
	err := s.scan("quarantine", func(hash string, data []byte) error {
		q, err := DecodeQuarantine(data)
		if err != nil {
			return err
		}
		if q.Hash != hash {
			return fmt.Errorf("journaled under %s but records hash %s", hash, q.Hash)
		}
		out[hash] = q
		return nil
	})
	return out, err
}

// scan walks one spool subdirectory, skipping interrupted temp files.
func (s *Spool) scan(sub string, fn func(hash string, data []byte) error) error {
	dir := filepath.Join(s.Dir, sub)
	des, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("farm: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".tmp-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("farm: %w", err)
		}
		if err := fn(strings.TrimSuffix(name, ".json"), data); err != nil {
			return fmt.Errorf("farm: %s/%s: %w", sub, name, err)
		}
	}
	return nil
}

// ---- journal decoding (fuzzed: see FuzzFarmJournal) ----

func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return nil
}

// DecodeCampaign parses and validates a campaign.json document.
func DecodeCampaign(data []byte) (*Campaign, error) {
	var c Campaign
	if err := decodeStrict(data, &c); err != nil {
		return nil, fmt.Errorf("farm: campaign: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

func encodeCampaign(c *Campaign) ([]byte, error) {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("farm: encoding campaign: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeResult parses one journaled result and checks its hash binds to
// its spec.
func DecodeResult(data []byte) (*Result, error) {
	var r Result
	if err := decodeStrict(data, &r); err != nil {
		return nil, fmt.Errorf("farm: result: %w", err)
	}
	if r.Hash != r.Job.Hash() {
		return nil, fmt.Errorf("farm: result hash %s does not match its spec (%s)", r.Hash, r.Job.Hash())
	}
	return &r, nil
}

// DecodeQuarantine parses one quarantine entry and checks its hash binds
// to its spec.
func DecodeQuarantine(data []byte) (*QuarantineEntry, error) {
	var q QuarantineEntry
	if err := decodeStrict(data, &q); err != nil {
		return nil, fmt.Errorf("farm: quarantine: %w", err)
	}
	if q.Hash != q.Job.Hash() {
		return nil, fmt.Errorf("farm: quarantine hash %s does not match its spec (%s)", q.Hash, q.Job.Hash())
	}
	return &q, nil
}

// ---- journal audit ----

// AuditReport is the exactly-once accounting of a spool: every campaign
// job must be committed exactly once or quarantined, with nothing extra.
type AuditReport struct {
	Jobs        int
	Committed   int
	Quarantined int
	// Missing lists job keys with neither a result nor a quarantine
	// entry (an incomplete campaign).
	Missing []string
	// Conflicts lists job keys that are both committed and quarantined.
	Conflicts []string
	// Orphans lists journal files whose hash matches no campaign job.
	Orphans []string
}

// Clean reports whether the journal accounts for every job exactly once.
func (a *AuditReport) Clean() bool {
	return len(a.Missing) == 0 && len(a.Conflicts) == 0 && len(a.Orphans) == 0
}

// Complete reports whether every job finished (committed or quarantined).
func (a *AuditReport) Complete() bool {
	return a.Clean() && a.Committed+a.Quarantined == a.Jobs
}

func (a *AuditReport) String() string {
	s := fmt.Sprintf("%d jobs: %d committed, %d quarantined, %d missing, %d conflicts, %d orphans",
		a.Jobs, a.Committed, a.Quarantined, len(a.Missing), len(a.Conflicts), len(a.Orphans))
	for _, m := range a.Missing {
		s += "\n  missing: " + m
	}
	for _, c := range a.Conflicts {
		s += "\n  conflict: " + c
	}
	for _, o := range a.Orphans {
		s += "\n  orphan: " + o
	}
	return s
}

// Audit replays the journal and checks the exactly-once invariant.
func Audit(dir string) (*AuditReport, error) {
	sp, err := OpenSpoolDir(dir)
	if err != nil {
		return nil, err
	}
	jobs, err := sp.campaign.Jobs()
	if err != nil {
		return nil, err
	}
	committed, err := sp.Committed()
	if err != nil {
		return nil, err
	}
	quarantined, err := sp.Quarantined()
	if err != nil {
		return nil, err
	}
	rep := &AuditReport{Jobs: len(jobs), Committed: len(committed), Quarantined: len(quarantined)}
	known := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		hash := j.Hash()
		known[hash] = true
		_, isDone := committed[hash]
		_, isQuar := quarantined[hash]
		switch {
		case isDone && isQuar:
			rep.Conflicts = append(rep.Conflicts, j.Key())
		case !isDone && !isQuar:
			rep.Missing = append(rep.Missing, j.Key())
		}
	}
	for hash := range committed {
		if !known[hash] {
			rep.Orphans = append(rep.Orphans, "results/"+hash+".json")
		}
	}
	for hash := range quarantined {
		if !known[hash] {
			rep.Orphans = append(rep.Orphans, "quarantine/"+hash+".json")
		}
	}
	sort.Strings(rep.Orphans)
	return rep, nil
}
