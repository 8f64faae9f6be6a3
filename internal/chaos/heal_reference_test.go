package chaos

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"uqsim/internal/config"
	"uqsim/internal/des"
	"uqsim/internal/rng"
)

// referenceHealAnalysis is the heal analysis as it stood before the fault
// kinds table: a switch over faults.json kind strings. It stays as the
// reference the table-driven healAnalysis must reproduce exactly.
func referenceHealAnalysis(h *Harness, ff *config.FaultsFile) (lastHealS float64, ok bool) {
	any := false
	heal := func(s float64) {
		any = true
		lastHealS = math.Max(lastHealS, s)
	}
	type pending struct{ crashes, recovers int }
	machines := map[string]*pending{}
	instances := map[string]*pending{}
	domains := map[string]*pending{}
	get := func(m map[string]*pending, k string) *pending {
		if m[k] == nil {
			m[k] = &pending{}
		}
		return m[k]
	}
	for _, ev := range ff.Events {
		switch ev.Kind {
		case "crash_machine":
			get(machines, ev.Machine).crashes++
		case "recover_machine":
			get(machines, ev.Machine).recovers++
			heal(ev.AtS)
		case "crash_domain":
			get(domains, ev.Domain).crashes++
		case "recover_domain":
			get(domains, ev.Domain).recovers++
			heal(ev.AtS + ev.StaggerMs*float64(h.world.domainSize[ev.Domain])/1000)
		case "kill_instance", "restart_instance":
			key := ev.Service
			if ev.Instance != nil {
				key = fmt.Sprintf("%s#%d", ev.Service, *ev.Instance)
			}
			if ev.Kind == "kill_instance" {
				get(instances, key).crashes++
			} else {
				get(instances, key).recovers++
				heal(ev.AtS)
			}
		default:
			if ev.UntilS <= 0 {
				return 0, false
			}
			any = true
			heal(ev.UntilS)
		}
	}
	for _, m := range []map[string]*pending{machines, instances, domains} {
		for _, p := range m {
			if p.crashes > p.recovers {
				return 0, false
			}
		}
	}
	if ff.Network != nil {
		for _, p := range ff.Network.Partitions {
			if p.UntilS <= 0 {
				return 0, false
			}
			heal(p.UntilS)
		}
		for _, l := range ff.Network.Links {
			if l.UntilS <= 0 {
				return 0, false
			}
			heal(l.UntilS)
		}
	}
	if !any {
		return 0, false
	}
	return lastHealS, true
}

// referenceWindowStart is recoveryWindowStart over the reference analysis.
func referenceWindowStart(h *Harness, ff *config.FaultsFile) des.Time {
	lastHealS, ok := referenceHealAnalysis(h, ff)
	if !ok {
		return 0
	}
	winStartS := lastHealS + 0.1*h.horizonS
	if winStartS > 0.85*h.horizonS {
		return 0
	}
	return des.FromSeconds(winStartS)
}

// TestWindowStartMatchesReference: the table-driven heal analysis places
// every recovery window exactly where the string-switch reference did, to
// the nanosecond, on every committed corpus entry and on generated
// scenarios against metastable and threeregion. The threeregion run also
// drops the base faults.json, whose recovery at 0.6s would otherwise
// always heal last: without it, staggered domain recoveries do.
func TestWindowStartMatchesReference(t *testing.T) {
	check := func(t *testing.T, h *Harness, name string, ff *config.FaultsFile) bool {
		t.Helper()
		got, want := h.recoveryWindowStart(ff), referenceWindowStart(h, ff)
		if got != want {
			t.Fatalf("%s: window starts at %d ns, reference %d ns", name, got, want)
		}
		return got > 0
	}

	meta := newTestHarness(t)
	entries, err := Entries(filepath.Join(metastableDir, "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range entries {
		data, err := os.ReadFile(filepath.Join(entry, "faults.json"))
		if err != nil {
			t.Fatal(err)
		}
		var ff config.FaultsFile
		if err := json.Unmarshal(data, &ff); err != nil {
			t.Fatal(err)
		}
		check(t, meta, entry, &ff)
	}

	region, err := NewHarness(Options{ConfigDir: "../../configs/threeregion"})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := NewHarness(Options{ConfigDir: "../../configs/threeregion"})
	if err != nil {
		t.Fatal(err)
	}
	bare.baseFaults = nil
	for _, h := range []*Harness{meta, region, bare} {
		windows, domainLast := 0, 0
		for trial := 0; trial < 200; trial++ {
			child := rng.NewSplitter(11).Child("chaos", fmt.Sprint(trial))
			sc := h.Generate(child.Stream("schedule"), child.Stream("seed").Uint64())
			_, ff, err := h.Materialize(sc)
			if err != nil {
				t.Fatal(err)
			}
			if check(t, h, fmt.Sprintf("%s trial %d", h.opts.ConfigDir, trial), ff) {
				windows++
			}
			last, _ := h.healAnalysis(ff)
			for _, ev := range ff.Events {
				if ev.Kind == "recover_domain" && ev.StaggerMs > 0 &&
					last == ev.AtS+ev.StaggerMs*float64(h.world.domainSize[ev.Domain])/1000 {
					domainLast++
				}
			}
		}
		if windows == 0 {
			t.Fatalf("%s: no generated scenario had a recovery window", h.opts.ConfigDir)
		}
		t.Logf("%s: %d/200 windows, %d healed last by a staggered domain recovery", h.opts.ConfigDir, windows, domainLast)
		if h == bare && domainLast == 0 {
			t.Fatal("no scenario healed last by a staggered domain recovery; the stagger path went unchecked")
		}
	}
}
