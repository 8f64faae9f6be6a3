package config

import (
	"path/filepath"
	"testing"
)

// TestInvalidFaultTimesRejected pins the validation surface the fuzz targets
// lean on: malformed times and probabilities must fail loudly, not panic or
// install silently.
func TestInvalidFaultTimesRejected(t *testing.T) {
	base, err := ReadDir(filepath.Join("..", "..", "configs", "twotier"))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		`{"events":[{"at_s":-1,"kind":"crash_machine","machine":"frontend"}]}`,
		`{"events":[{"at_s":0.1,"until_s":0.05,"kind":"edge_latency","service":"nginx","extra_ms":1}]}`,
		`{"network":{"partitions":[{"at_s":-5,"group_a":["frontend"],"group_b":["cache"]}]}}`,
		`{"network":{"partitions":[{"at_s":0.2,"until_s":0.1,"group_a":["frontend"],"group_b":["cache"]}]}}`,
		`{"network":{"links":[{"src":"frontend","dst":"cache","drop":1.5}]}}`,
		`{"network":{"links":[{"src":"frontend","dst":"cache","drop":-0.1}]}}`,
	} {
		d := *base
		d.Faults = []byte(bad)
		_, err := d.Load(Overrides{})
		t.Logf("%s -> %v", bad, err)
		if err == nil {
			t.Errorf("accepted: %s", bad)
		}
	}
}
