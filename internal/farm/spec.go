// Package farm is µqSim's fault-tolerant experiment farm: it expands a
// sweep or chaos campaign into content-hashed job specs, journals them to
// a durable spool directory, and fans them out to a pool of worker
// subprocesses behind a lease-based queue. The farm is built to tolerate
// the same failures the simulator injects — worker crashes, hangs, and
// operator interrupts — without losing or double-counting a single trial:
//
//   - leases carry heartbeats and expire back to the queue when a worker
//     goes silent;
//   - a per-job wall-clock watchdog kills workers that hang mid-job;
//   - crashed workers respawn with exponential backoff and jitter;
//   - a job that kills its worker K times in a row is quarantined as a
//     replayable poison spec instead of wedging the campaign;
//   - results commit idempotently, keyed by the job's content hash, so a
//     retried or duplicated completion can never double-count;
//   - an interrupted campaign resumes by replaying the spool journal.
//
// The determinism contract: every job is a pure function of its spec and
// the configuration bytes it hashes, so the merged output of a campaign —
// at any worker count, with workers dying mid-run — is byte-identical to
// a serial run of the same points.
package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"uqsim/internal/config"
	"uqsim/internal/experiments"
)

// Campaign kinds.
const (
	KindSweep = "sweep" // one job per load point of a load–latency sweep
	KindChaos = "chaos" // one job per seeded chaos-search trial
)

// MaxJobs bounds a campaign's expansion. It exists so a corrupted or
// adversarial campaign.json (the journal decoder is fuzzed) cannot ask
// for an effectively unbounded allocation.
const MaxJobs = 1 << 20

// Campaign describes one experiment campaign: the configuration it runs
// against and the grid of independent points to cover. The campaign
// document is the head of the spool journal; expanding it is
// deterministic, so the job list never needs to be journaled separately.
type Campaign struct {
	Kind      string `json:"kind"`
	ConfigDir string `json:"config_dir"`
	// ConfigHash pins the exact configuration bytes (config.HashDir);
	// every job spec carries it, so results from a drifted config are
	// rejected rather than silently merged.
	ConfigHash string `json:"config_hash"`

	// Sweep campaigns: the inclusive load grid, expanded exactly like
	// `uqsim sweep` iterates it.
	FromQPS float64 `json:"from_qps,omitempty"`
	ToQPS   float64 `json:"to_qps,omitempty"`
	StepQPS float64 `json:"step_qps,omitempty"`

	// Chaos campaigns: the master seed and trial count of the search, and
	// the per-scenario action bound (0 = the chaos default).
	Seed       uint64 `json:"seed,omitempty"`
	Trials     int    `json:"trials,omitempty"`
	MaxActions int    `json:"max_actions,omitempty"`
}

// NewSweepCampaign builds a sweep campaign over configDir, hashing the
// configuration it will run against.
func NewSweepCampaign(configDir string, from, to, step float64) (*Campaign, error) {
	hash, err := config.HashDir(configDir)
	if err != nil {
		return nil, err
	}
	c := &Campaign{
		Kind: KindSweep, ConfigDir: configDir, ConfigHash: hash,
		FromQPS: from, ToQPS: to, StepQPS: step,
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewChaosCampaign builds a chaos-search campaign over configDir.
func NewChaosCampaign(configDir string, seed uint64, trials, maxActions int) (*Campaign, error) {
	hash, err := config.HashDir(configDir)
	if err != nil {
		return nil, err
	}
	c := &Campaign{
		Kind: KindChaos, ConfigDir: configDir, ConfigHash: hash,
		Seed: seed, Trials: trials, MaxActions: maxActions,
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate checks the campaign is well-formed and boundedly expandable.
func (c *Campaign) Validate() error {
	if c.ConfigDir == "" {
		return fmt.Errorf("farm: campaign needs a config_dir")
	}
	if c.ConfigHash == "" {
		return fmt.Errorf("farm: campaign needs a config_hash")
	}
	switch c.Kind {
	case KindSweep:
		// Bound the job count before SweepGrid materializes the grid, so a
		// hostile campaign.json cannot ask for an unbounded allocation. A
		// non-finite or non-positive bound either trips this or reaches
		// SweepGrid's own checks.
		if n := (c.ToQPS - c.FromQPS) / c.StepQPS; n > MaxJobs {
			return fmt.Errorf("farm: sweep campaign expands to over %d jobs", MaxJobs)
		}
		if _, err := experiments.SweepGrid(c.FromQPS, c.ToQPS, c.StepQPS); err != nil {
			return fmt.Errorf("farm: sweep campaign: %w", err)
		}
	case KindChaos:
		if c.Trials <= 0 {
			return fmt.Errorf("farm: chaos campaign needs trials > 0")
		}
		if c.Trials > MaxJobs {
			return fmt.Errorf("farm: chaos campaign expands to over %d jobs", MaxJobs)
		}
		if c.MaxActions < 0 {
			return fmt.Errorf("farm: chaos campaign needs max_actions >= 0")
		}
	default:
		return fmt.Errorf("farm: unknown campaign kind %q (have %q, %q)", c.Kind, KindSweep, KindChaos)
	}
	return nil
}

// Jobs expands the campaign into its job specs in campaign order — the
// order the serial CLI would run them and the order Merge reassembles
// results in.
func (c *Campaign) Jobs() ([]JobSpec, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var jobs []JobSpec
	switch c.Kind {
	case KindSweep:
		grid, err := experiments.SweepGrid(c.FromQPS, c.ToQPS, c.StepQPS)
		if err != nil {
			return nil, err
		}
		for i, qps := range grid {
			jobs = append(jobs, JobSpec{
				Kind: KindSweep, ConfigHash: c.ConfigHash, Index: i, QPS: qps,
			})
		}
	case KindChaos:
		for i := 0; i < c.Trials; i++ {
			jobs = append(jobs, JobSpec{
				Kind: KindChaos, ConfigHash: c.ConfigHash, Index: i,
				Seed: c.Seed, MaxActions: c.MaxActions,
			})
		}
	}
	if len(jobs) > MaxJobs {
		return nil, fmt.Errorf("farm: campaign expands to %d jobs (max %d)", len(jobs), MaxJobs)
	}
	return jobs, nil
}

// JobSpec is one unit of farm work: a single sweep point or chaos trial.
// Specs are content-addressed — Hash covers every field plus the config
// hash — which is what makes retries, duplicate completions, and resumed
// campaigns safe to merge.
type JobSpec struct {
	Kind       string `json:"kind"`
	ConfigHash string `json:"config_hash"`
	// Index is the job's position in campaign order (the sweep point's
	// grid index, or the chaos trial number).
	Index      int     `json:"index"`
	QPS        float64 `json:"qps,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	MaxActions int     `json:"max_actions,omitempty"`
}

// Hash is the job's content address: a stable digest of the canonical
// spec encoding. Spool filenames, leases, and idempotent commits are all
// keyed by it.
func (j JobSpec) Hash() string {
	data, err := json.Marshal(j)
	if err != nil {
		// JobSpec has no unmarshalable fields; this cannot happen.
		panic(fmt.Sprintf("farm: encoding job spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16])
}

// Key is the job's human-readable handle, used in logs and by the
// test-only fault hooks that target specific jobs.
func (j JobSpec) Key() string {
	switch j.Kind {
	case KindSweep:
		return fmt.Sprintf("sweep:%.0f", j.QPS)
	case KindChaos:
		return fmt.Sprintf("chaos:%d", j.Index)
	}
	return fmt.Sprintf("%s:%d", j.Kind, j.Index)
}
