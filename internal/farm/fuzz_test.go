package farm

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzFarmJournal throws arbitrary bytes at the three journal decoders —
// the only code that reads spool files back — plus the campaign expander
// behind them. The resilience claims under test: no panic on any input,
// bounded expansion (a hostile campaign.json cannot allocate a million
// jobs), hash binding (a decoded record always matches its spec), and a
// clean encode→decode round trip for every accepted document.
func FuzzFarmJournal(f *testing.F) {
	f.Add([]byte(`{"kind":"sweep","config_dir":"configs/twotier","config_hash":"abc","from_qps":1000,"to_qps":3000,"step_qps":1000}`))
	f.Add([]byte(`{"kind":"chaos","config_dir":"configs/metastable","config_hash":"abc","seed":5,"trials":8}`))
	spec := JobSpec{Kind: KindSweep, ConfigHash: "abc", Index: 0, QPS: 1000}
	if data, err := json.Marshal(&Result{Hash: spec.Hash(), Job: spec, Row: []string{"1", "2", "3", "4", "5", "6", "7"}}); err == nil {
		f.Add(data)
	}
	if data, err := json.Marshal(&QuarantineEntry{Hash: spec.Hash(), Job: spec, Failures: []FailureRecord{{Attempt: 1, Reason: "x"}}}); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"kind":"sweep","config_dir":"d","config_hash":"h","from_qps":1e308,"to_qps":1.7e308,"step_qps":1e-300}`))
	f.Add([]byte(`{"kind":"chaos","config_dir":"d","config_hash":"h","trials":2097152}`))
	// step below the float ulp at the grid magnitude: must be rejected,
	// not looped on forever.
	f.Add([]byte(`{"kind":"sweep","config_dir":"d","config_hash":"h","from_qps":1e16,"to_qps":10000000000000004,"step_qps":1}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{}`))
	// A step of exactly half an ulp: to rounds up, so the step looks big
	// enough there, but the grid stalls at from, which rounds down.
	f.Add([]byte(`{"kind":"sweep","config_dir":"d","config_hash":"h","from_qps":1e16,"to_qps":10000000000000002,"step_qps":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := DecodeCampaign(data); err == nil {
			jobs, err := c.Jobs()
			if err != nil {
				t.Fatalf("validated campaign failed to expand: %v", err)
			}
			if len(jobs) > MaxJobs {
				t.Fatalf("campaign expanded to %d jobs past the %d bound", len(jobs), MaxJobs)
			}
			for _, j := range jobs {
				if j.ConfigHash != c.ConfigHash {
					t.Fatal("job spec lost the campaign's config hash")
				}
			}
			// Round trip: the re-encoded campaign must decode to the same
			// expansion (spool reopening byte-compares campaign.json).
			re, err := json.Marshal(c)
			if err != nil {
				t.Fatalf("re-encoding: %v", err)
			}
			c2, err := DecodeCampaign(re)
			if err != nil {
				t.Fatalf("round trip rejected: %v", err)
			}
			jobs2, err := c2.Jobs()
			if err != nil || len(jobs2) != len(jobs) {
				t.Fatalf("round trip changed the expansion: %d vs %d (%v)", len(jobs), len(jobs2), err)
			}
			for i := range jobs {
				if jobs[i].Hash() != jobs2[i].Hash() {
					t.Fatalf("round trip changed job %d's hash", i)
				}
			}
		}
		if r, err := DecodeResult(data); err == nil {
			if r.Hash != r.Job.Hash() {
				t.Fatal("decoded result with unbound hash")
			}
			re, err := json.MarshalIndent(r, "", "  ")
			if err != nil {
				t.Fatalf("re-encoding result: %v", err)
			}
			if _, err := DecodeResult(re); err != nil {
				t.Fatalf("result round trip rejected: %v", err)
			}
		}
		if q, err := DecodeQuarantine(data); err == nil {
			if q.Hash != q.Job.Hash() {
				t.Fatal("decoded quarantine entry with unbound hash")
			}
		}
		// The dispatch/worker wire messages share the journal's decoding
		// discipline; they must never panic either.
		var dm dispatchMsg
		_ = json.Unmarshal(data, &dm)
		var wm workerMsg
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&wm); err == nil && wm.Result != nil {
			_ = wm.Result.Job.Hash()
		}
	})
}
