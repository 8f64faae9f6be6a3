package farm

import (
	"fmt"

	"uqsim/internal/atomicfile"
	"uqsim/internal/chaos"
	"uqsim/internal/experiments"
)

// Merged is a campaign's results reassembled in campaign order. Because
// every job is deterministic and the merge iterates the campaign's own
// expansion — never the completion order — the merged table of a farm run
// is byte-identical to a serial run, at any worker count, with workers
// dying mid-campaign.
type Merged struct {
	Campaign *Campaign
	// Table is the sweep table (experiments.SweepColumns rows) or the
	// chaos-campaign summary.
	Table *experiments.Table
	// Entries are the chaos corpus artifacts, in trial order.
	Entries []*chaos.Entry
	// Violations counts chaos trials whose invariants broke.
	Violations int
	// Missing are jobs with neither a result nor a quarantine entry;
	// Quarantined are the withdrawn poison jobs.
	Missing     []string
	Quarantined []string
}

// Complete reports whether every job committed (no gaps, no poison).
func (m *Merged) Complete() bool { return len(m.Missing) == 0 && len(m.Quarantined) == 0 }

// Merge replays the spool journal into campaign-order results.
func Merge(spoolDir string) (*Merged, error) {
	sp, err := OpenSpoolDir(spoolDir)
	if err != nil {
		return nil, err
	}
	c := sp.Campaign()
	jobs, err := c.Jobs()
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
	m := &Merged{Campaign: c}
	switch c.Kind {
	case KindSweep:
		m.Table = experiments.SweepTable(c.ConfigDir)
	case KindChaos:
		m.Table = experiments.NewTable(
			fmt.Sprintf("Chaos search of %s (seed %d)", c.ConfigDir, c.Seed),
			"trial", "events", "violation", "events_shrunk", "detail")
	}
	for _, j := range jobs {
		hash := j.Hash()
		r := committed[hash]
		if r == nil {
			if _, ok := quarantined[hash]; ok {
				m.Quarantined = append(m.Quarantined, j.Key())
			} else {
				m.Missing = append(m.Missing, j.Key())
			}
			continue
		}
		switch c.Kind {
		case KindSweep:
			if len(r.Row) != len(m.Table.Columns) {
				return nil, fmt.Errorf("farm: result %s carries %d cells for %d columns", j.Key(), len(r.Row), len(m.Table.Columns))
			}
			m.Table.Add(r.Row...)
		case KindChaos:
			out := r.Chaos
			if out == nil {
				return nil, fmt.Errorf("farm: chaos result %s carries no outcome", j.Key())
			}
			violation, detail := "ok", ""
			if out.Violation != "" {
				violation, detail = out.Violation, out.Detail
				m.Violations++
				if out.Entry != nil {
					m.Entries = append(m.Entries, out.Entry)
				}
			}
			m.Table.Add(
				fmt.Sprintf("%d", j.Index),
				fmt.Sprintf("%d", out.Events),
				violation,
				fmt.Sprintf("%d", out.EventsAfter),
				detail,
			)
		}
	}
	if !m.Complete() {
		m.Table.Note = fmt.Sprintf("PARTIAL: %d jobs missing, %d quarantined", len(m.Missing), len(m.Quarantined))
	}
	return m, nil
}

// WriteCSV writes the merged table atomically.
func (m *Merged) WriteCSV(path string) error {
	if err := atomicfile.Write(path, []byte(m.Table.CSV())); err != nil {
		return fmt.Errorf("farm: %w", err)
	}
	return nil
}

// WriteCorpus archives the chaos entries under dir, exactly as a serial
// search would have (chaos.ArchiveEntry: atomic files, meta.json last).
func (m *Merged) WriteCorpus(dir string) error {
	for _, e := range m.Entries {
		if _, err := chaos.ArchiveEntry(dir, e); err != nil {
			return err
		}
	}
	return nil
}
