package main

import (
	"bytes"
	"embed"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"text/template"

	"uqsim/internal/des"
)

// The resilient workload's config directory: five documents copied as
// they are, client.json and faults.json rendered from templates. The shape
// is configs/threeregion grown to two machines per region.
//
//go:embed workloads/resilient
var resilientFS embed.FS

const resilientTemplates = "workloads/resilient"

var resilientStatic = []string{"machines.json", "service.json", "graph.json", "path.json", "control.json"}

// resilientSlots is the number of one-second fault slots in a rep: three
// rounds of the four fault kinds, so each kind hits each region once.
const resilientSlots = 12

var resilientRegions = []string{"east", "west", "eu"}

// faultSchedule is what faults.json.tmpl renders: JSON objects, one per
// scheduled fault.
type faultSchedule struct {
	Events, Partitions, Links []string
}

// resilientSchedule derives the fault schedule from seed alone. Slot i
// (one simulated second, starting after the warm-up) holds one fault of
// kind i mod 4: a domain crash and recovery, a partition, a gray link, a
// DVFS degrade. Every seed schedules the same faults with the same
// durations; the seed decides which region each round of a kind hits and
// where in its slot the fault starts, so the simulated work is the same
// from seed to seed.
func resilientSchedule(seed uint64, warmup, duration des.Time) faultSchedule {
	r := rand.New(rand.NewPCG(seed, 0x7265_7369_6c69_656e)) // "resilien"
	slot := duration.Seconds() / resilientSlots
	var order [4][]int // per kind: the region each round hits
	for k := range order {
		order[k] = r.Perm(len(resilientRegions))
	}
	var fs faultSchedule
	for i := 0; i < resilientSlots; i++ {
		kind, round := i%4, i/4
		region := resilientRegions[order[kind][round%len(resilientRegions)]]
		at := warmup.Seconds() + slot*(float64(i)+0.1+0.2*r.Float64())
		until := at + 0.4*slot
		machine := region + "-" + strconv.Itoa(r.IntN(2))
		switch kind {
		case 0:
			fs.Events = append(fs.Events,
				fmt.Sprintf(`{"at_s": %.6f, "kind": "crash_domain", "domain": "rack-%s", "stagger_ms": 1}`, at, region),
				fmt.Sprintf(`{"at_s": %.6f, "kind": "recover_domain", "domain": "rack-%s"}`, until, region))
		case 1:
			var rest []string
			for _, other := range resilientRegions {
				if other != region {
					rest = append(rest, `"`+other+`-0", "`+other+`-1"`)
				}
			}
			fs.Partitions = append(fs.Partitions,
				fmt.Sprintf(`{"at_s": %.6f, "until_s": %.6f, "group_a": ["%s-0", "%s-1"], "group_b": [%s, %s]}`,
					at, until, region, region, rest[0], rest[1]))
		case 2:
			// The lossy pair is the two machines of one region, in a
			// seed-chosen direction: front and store sit on both, so
			// half the region's calls cross it.
			src, dst := region+"-0", region+"-1"
			if machine == dst {
				src, dst = dst, src
			}
			fs.Links = append(fs.Links,
				fmt.Sprintf(`{"at_s": %.6f, "until_s": %.6f, "src": "%s", "dst": "%s", "drop": 0.2, "dup": 0.05}`,
					at, until, src, dst))
		case 3:
			fs.Events = append(fs.Events,
				fmt.Sprintf(`{"at_s": %.6f, "kind": "degrade_freq", "machine": "%s", "freq_mhz": 1300, "until_s": %.6f}`,
					at, machine, until))
		}
	}
	return fs
}

// writeResilientDir writes the config directory for one rep: the fault
// schedule comes from the benchmark seed, the simulation's random streams
// from repSeed.
func writeResilientDir(dir string, seed, repSeed uint64, warmup, duration des.Time) error {
	for _, name := range resilientStatic {
		data, err := resilientFS.ReadFile(resilientTemplates + "/" + name)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	render := func(name string, data any) error {
		t, err := template.ParseFS(resilientFS, resilientTemplates+"/"+name+".tmpl")
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := t.Execute(&buf, data); err != nil {
			return fmt.Errorf("rendering %s: %w", name, err)
		}
		return os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644)
	}
	if err := render("client.json", map[string]any{
		"Seed": repSeed, "WarmupS": warmup.Seconds(), "DurationS": duration.Seconds(),
	}); err != nil {
		return err
	}
	return render("faults.json", resilientSchedule(seed, warmup, duration))
}
