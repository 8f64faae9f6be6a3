package config

import (
	"slices"
	"strings"
	"testing"

	"uqsim/internal/des"
)

// regionTopology installs a two-region layer over the twotier machines.
func regionTopology(m map[string]any) {
	m["topology"] = map[string]any{
		"regions": []any{
			map[string]any{"name": "east", "machines": []any{"frontend"}},
			map[string]any{"name": "west", "machines": []any{"cache"}},
		},
		"wan": map[string]any{"latency_ms": 5.0},
	}
}

// TestRegionConfigErrors pins the strict-decode and validation paths of
// the region schema: typo'd fields and names get did-you-mean
// suggestions, and structurally invalid geographies are rejected with a
// named location.
func TestRegionConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		muts map[string]func(map[string]any)
		want string
	}{
		{"machine in two regions", map[string]func(map[string]any){
			"machines.json": func(m map[string]any) {
				m["topology"] = map[string]any{"regions": []any{
					map[string]any{"name": "east", "machines": []any{"frontend", "cache"}},
					map[string]any{"name": "west", "machines": []any{"cache"}},
				}}
			},
		}, "two regions"},
		{"unknown region machine", map[string]func(map[string]any){
			"machines.json": func(m map[string]any) {
				m["topology"] = map[string]any{"regions": []any{
					map[string]any{"name": "east", "machines": []any{"frontendz"}},
				}}
			},
		}, `did you mean "frontend"`},
		{"unknown rack", map[string]func(map[string]any){
			"machines.json": func(m map[string]any) {
				m["topology"] = map[string]any{
					"domains": []any{map[string]any{"name": "rack0", "machines": []any{"frontend"}}},
					"regions": []any{
						map[string]any{"name": "east", "racks": []any{"rack9"}},
						map[string]any{"name": "west", "machines": []any{"cache"}},
					}}
			},
		}, `did you mean "rack0"`},
		{"negative wan latency", map[string]func(map[string]any){
			"machines.json": func(m map[string]any) {
				regionTopology(m)
				m["topology"].(map[string]any)["wan"] = map[string]any{"latency_ms": -5.0}
			},
		}, "negative WAN latency"},
		{"wan without regions", map[string]func(map[string]any){
			"machines.json": func(m map[string]any) {
				m["topology"] = map[string]any{
					"domains": []any{map[string]any{"name": "rack0", "machines": []any{"frontend"}}},
					"wan":     map[string]any{"latency_ms": 5.0},
				}
			},
		}, "topology.wan requires topology.regions"},
		{"wan typo field", map[string]func(map[string]any){
			"machines.json": func(m map[string]any) {
				regionTopology(m)
				m["topology"].(map[string]any)["wan"] = map[string]any{"latency_mz": 5.0}
			},
		}, `did you mean "latency_ms"`},
		{"unknown wan link region", map[string]func(map[string]any){
			"machines.json": func(m map[string]any) {
				regionTopology(m)
				m["topology"].(map[string]any)["wan"] = map[string]any{
					"links": []any{map[string]any{"a": "eastt", "b": "west"}},
				}
			},
		}, `did you mean "east"`},
		{"unknown replication region", map[string]func(map[string]any){
			"machines.json": regionTopology,
			"graph.json": func(m map[string]any) {
				m["deployments"].([]any)[1].(map[string]any)["replication"] =
					map[string]any{"regions": []any{"eastt"}}
			},
		}, `did you mean "east"`},
		{"replication without regions", map[string]func(map[string]any){
			"graph.json": func(m map[string]any) {
				m["deployments"].([]any)[1].(map[string]any)["replication"] =
					map[string]any{"lag_ms": 10.0}
			},
		}, "requires topology.regions"},
		{"negative replication lag", map[string]func(map[string]any){
			"machines.json": regionTopology,
			"graph.json": func(m map[string]any) {
				m["deployments"].([]any)[1].(map[string]any)["replication"] =
					map[string]any{"lag_ms": -1.0, "regions": []any{"east", "west"}}
			},
		}, "non-negative"},
		{"replication single region", map[string]func(map[string]any){
			"machines.json": regionTopology,
			"graph.json": func(m map[string]any) {
				m["deployments"].([]any)[1].(map[string]any)["replication"] =
					map[string]any{"regions": []any{"west"}}
			},
		}, "two regions"},
		{"client unknown region", map[string]func(map[string]any){
			"machines.json": regionTopology,
			"client.json": func(m map[string]any) {
				m["region"] = "easy"
			},
		}, `did you mean "east"`},
		{"client region without regions", map[string]func(map[string]any){
			"client.json": func(m map[string]any) {
				m["region"] = "east"
			},
		}, "unknown region"},
	}
	for _, c := range cases {
		_, err := mutateSetup(t, c.muts)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q lacks %q", c.name, err, c.want)
		}
	}
}

// TestRegionConfigAssembles: a valid region layer — rack-pulled
// membership, WAN overrides, a homed client — assembles and runs with
// cross-region accounting active.
func TestRegionConfigAssembles(t *testing.T) {
	setup, err := mutateSetup(t, map[string]func(map[string]any){
		"machines.json": func(m map[string]any) {
			m["topology"] = map[string]any{
				"domains": []any{map[string]any{"name": "rack0", "machines": []any{"frontend"}}},
				"regions": []any{
					map[string]any{"name": "east", "racks": []any{"rack0"}},
					map[string]any{"name": "west", "machines": []any{"cache"}},
				},
				"wan": map[string]any{
					"latency_ms": 5.0,
					"links":      []any{map[string]any{"a": "east", "b": "west", "latency_ms": 1.0, "per_kb_us": 0.5}},
				},
			}
		},
		"client.json": func(m map[string]any) {
			m["region"] = "east"
			m["duration_s"] = 0.1
			m["warmup_s"] = 0.0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	geo := setup.Sim.Geography()
	if geo == nil {
		t.Fatal("no geography installed")
	}
	if !slices.Contains(geo.Regions()[geo.RegionIndex("east")].Machines, "frontend") {
		t.Fatalf("rack-pulled membership: frontend not in east: %+v", geo.Regions())
	}
	if d := geo.DelayAt(geo.RegionIndex("east"), geo.RegionIndex("west"), 0); d != des.Millisecond {
		t.Fatalf("link override delay = %v, want 1ms", d)
	}
	rep, err := setup.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions == 0 {
		t.Fatal("no completions")
	}
	// nginx sits in east, memcached in west: every nginx→memcached hop
	// crosses the WAN.
	if rep.CrossRegionCalls == 0 {
		t.Fatal("no cross-region calls counted")
	}
}

// TestLoadDirThreeRegion runs the shipped three-region reference config
// end to end: rack→region hierarchy, WAN overrides, geo-replicated
// store, east-homed diurnal client, a full east outage healed mid-run,
// and the control plane's region failover promoting a survivor.
func TestLoadDirThreeRegion(t *testing.T) {
	setup, err := LoadDir("../../configs/threeregion")
	if err != nil {
		t.Fatal(err)
	}
	if setup.Plane == nil {
		t.Fatal("control.json present but no plane attached")
	}
	rep, err := setup.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions == 0 {
		t.Fatal("no completions")
	}
	st := setup.Plane.Stats()
	if st.RegionLosses == 0 || st.RegionFailovers == 0 || st.RegionRestores == 0 {
		t.Fatalf("east outage not handled: %s", st.Fingerprint())
	}
	if rep.CrossRegionCalls == 0 {
		t.Fatal("no cross-region traffic during the outage")
	}
	leaked := rep.Arrivals - (rep.Completions + rep.Timeouts + rep.Shed +
		rep.Dropped + rep.DeadlineExpired + rep.Unreachable + uint64(rep.InFlight))
	if leaked != 0 {
		t.Fatalf("leaked %d requests", leaked)
	}
}

// TestThreeRegionIndexLookups: on the shipped three-region config, every
// per-hop geography lookup by index (RegionIndex, NearestAt, the
// machines' Region) agrees with the name-keyed API and the region
// member lists, and each nearest order is the one its definition gives:
// ascending WAN latency from the source, ties by declaration order.
func TestThreeRegionIndexLookups(t *testing.T) {
	setup, err := LoadDir("../../configs/threeregion")
	if err != nil {
		t.Fatal(err)
	}
	geo := setup.Sim.Geography()
	regions := geo.Regions()
	for i, a := range regions {
		if r := geo.RegionIndex(a.Name); r != i {
			t.Fatalf("RegionIndex(%s) = %d, want %d", a.Name, r, i)
		}
		byName := geo.Nearest(a.Name)
		byIndex := geo.NearestAt(i)
		if len(byName) != len(regions) || len(byIndex) != len(regions) {
			t.Fatalf("Nearest(%s) = %v, NearestAt(%d) = %v", a.Name, byName, i, byIndex)
		}
		for k, r := range byIndex {
			if regions[r].Name != byName[k] {
				t.Errorf("NearestAt(%d)[%d] = %s, Nearest(%s)[%d] = %s", i, k, regions[r].Name, a.Name, k, byName[k])
			}
			if k == 0 {
				if r != i {
					t.Errorf("Nearest(%s) does not lead with itself: %v", a.Name, byName)
				}
				continue
			}
			prev := byIndex[k-1]
			lp, lr := geo.LinkAt(i, prev).Latency, geo.LinkAt(i, r).Latency
			if lp > lr || (lp == lr && prev > r) {
				t.Errorf("Nearest(%s) = %v is not ordered by latency, then declaration", a.Name, byName)
			}
		}
	}
	home := map[string]int{}
	for i, r := range regions {
		for _, name := range r.Machines {
			home[name] = i
		}
	}
	for _, m := range setup.Sim.Cluster().Machines() {
		want, ok := home[m.Name]
		if !ok {
			want = -1
		}
		if m.Region != want {
			t.Errorf("machine %s: Region %d, its region's member list says %d", m.Name, m.Region, want)
		}
	}
}
