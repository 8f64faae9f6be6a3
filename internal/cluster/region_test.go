package cluster

import (
	"strings"
	"testing"

	"uqsim/internal/des"
)

func threeRegions() []Region {
	return []Region{
		{Name: "east", Machines: []string{"m0", "m1"}},
		{Name: "west", Machines: []string{"m2", "m3"}},
		{Name: "eu", Machines: []string{"m4"}},
	}
}

func TestNewGeographyValidation(t *testing.T) {
	known := func(m string) bool { return strings.HasPrefix(m, "m") }
	cases := []struct {
		name    string
		regions []Region
		wantErr string
	}{
		{"empty", nil, "at least one region"},
		{"unnamed", []Region{{Machines: []string{"m0"}}}, "no name"},
		{"dup-name", []Region{
			{Name: "east", Machines: []string{"m0"}},
			{Name: "east", Machines: []string{"m1"}},
		}, `duplicate region "east"`},
		{"no-machines", []Region{{Name: "east"}}, "no machines"},
		{"unknown-machine", []Region{{Name: "east", Machines: []string{"x9"}}}, `unknown machine "x9"`},
		{"two-regions", []Region{
			{Name: "east", Machines: []string{"m0"}},
			{Name: "west", Machines: []string{"m0"}},
		}, `machine "m0" assigned to two regions`},
		{"twice-in-one", []Region{{Name: "east", Machines: []string{"m0", "m0"}}}, `lists machine "m0" twice`},
	}
	for _, tc := range cases {
		_, err := NewGeography(tc.regions, known)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: got %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
	if _, err := NewGeography(threeRegions(), known); err != nil {
		t.Fatalf("valid geography rejected: %v", err)
	}
}

func TestGeographyLookups(t *testing.T) {
	g, err := NewGeography(threeRegions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasRegion("eu") || g.HasRegion("mars") {
		t.Fatal("HasRegion wrong")
	}
	if n := len(g.Regions()); n != 3 {
		t.Fatalf("Regions() = %d entries, want 3", n)
	}
}

func TestGeographyWANAndNearest(t *testing.T) {
	g, err := NewGeography(threeRegions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetDefaultWAN(WANLink{Latency: 30 * des.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetLink("east", "west", WANLink{Latency: 5 * des.Millisecond, PerKB: 10 * des.Microsecond}); err != nil {
		t.Fatal(err)
	}

	if d := g.Delay("east", "east", 4); d != 0 {
		t.Fatalf("intra-region delay = %v, want 0", d)
	}
	if d := g.Delay("east", "", 4); d != 0 {
		t.Fatalf("unassigned endpoint delay = %v, want 0", d)
	}
	want := 5*des.Millisecond + 4*10*des.Microsecond
	if d := g.Delay("west", "east", 4); d != want {
		t.Fatalf("east-west delay = %v, want %v (link must be symmetric)", d, want)
	}
	if d := g.DelayAt(g.RegionIndex("east"), g.RegionIndex("west"), 4); d != want {
		t.Fatalf("DelayAt(east, west) = %v, want %v", d, want)
	}
	if d := g.Delay("east", "eu", 0); d != 30*des.Millisecond {
		t.Fatalf("default WAN delay = %v, want 30ms", d)
	}

	if got := g.Nearest("east"); len(got) != 3 || got[0] != "east" || got[1] != "west" || got[2] != "eu" {
		t.Fatalf("Nearest(east) = %v", got)
	}
	// west↔eu both use the default; ties break by declaration order.
	if got := g.Nearest("eu"); got[0] != "eu" || got[1] != "east" || got[2] != "west" {
		t.Fatalf("Nearest(eu) = %v", got)
	}
	if got := g.Nearest("mars"); got != nil {
		t.Fatalf("Nearest(unknown) = %v, want nil", got)
	}

	// The cache must reset when the WAN model changes.
	if err := g.SetLink("east", "eu", WANLink{Latency: des.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if got := g.Nearest("east"); got[1] != "eu" {
		t.Fatalf("Nearest(east) after relink = %v, want eu second", got)
	}

	if err := g.SetDefaultWAN(WANLink{Latency: -des.Millisecond}); err == nil {
		t.Fatal("negative default WAN latency accepted")
	}
	if err := g.SetLink("east", "west", WANLink{PerKB: -1}); err == nil {
		t.Fatal("negative per-KB cost accepted")
	}
	if err := g.SetLink("east", "mars", WANLink{}); err == nil {
		t.Fatal("unknown link region accepted")
	}
	if err := g.SetLink("east", "east", WANLink{}); err == nil {
		t.Fatal("self-link accepted")
	}
}
