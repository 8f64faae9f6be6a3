package netfault

import "testing"

// Machines by ID.
const a, b, c = 0, 1, 2

func TestSymmetricPartition(t *testing.T) {
	st := New()
	if !st.Reachable(a, b) || st.Partitioned() {
		t.Fatal("fresh state must be fully connected")
	}
	st.StartPartition([]int{a}, []int{b, c}, false)
	if st.Reachable(a, b) || st.Reachable(b, a) || st.Reachable(a, c) {
		t.Fatal("partition must sever both directions")
	}
	if !st.Reachable(b, c) {
		t.Fatal("pairs outside the cut must stay connected")
	}
	if !st.Reachable(a, a) {
		t.Fatal("a machine always reaches itself")
	}
	if !st.Partitioned() {
		t.Fatal("Partitioned must report the open cut")
	}
	st.HealPartition([]int{a}, []int{b, c}, false)
	if !st.Reachable(a, b) || !st.Reachable(b, a) || st.Partitioned() {
		t.Fatal("heal must restore connectivity")
	}
}

func TestOneWayPartition(t *testing.T) {
	st := New()
	st.StartPartition([]int{a}, []int{b}, true)
	if st.Reachable(a, b) {
		t.Fatal("a→b must be cut")
	}
	if !st.Reachable(b, a) {
		t.Fatal("one-way cut must leave b→a intact")
	}
	st.HealPartition([]int{a}, []int{b}, true)
	if !st.Reachable(a, b) {
		t.Fatal("heal must restore a→b")
	}
}

func TestOverlappingPartitionsStack(t *testing.T) {
	st := New()
	st.StartPartition([]int{a}, []int{b}, false)
	st.StartPartition([]int{a}, []int{b, c}, false)
	st.HealPartition([]int{a}, []int{b}, false)
	if st.Reachable(a, b) {
		t.Fatal("a↔b is still cut by the second partition")
	}
	if st.Reachable(a, c) {
		t.Fatal("a↔c is cut by the second partition")
	}
	st.HealPartition([]int{a}, []int{b, c}, false)
	if !st.Reachable(a, b) || !st.Reachable(a, c) {
		t.Fatal("all cuts healed — connectivity must be restored")
	}
}

func TestHealWithoutStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("heal without a start must panic")
		}
	}()
	New().HealPartition([]int{a}, []int{b}, false)
}

func TestLinks(t *testing.T) {
	st := New()
	if st.Lossy() {
		t.Fatal("fresh state has no lossy links")
	}
	st.SetLink(a, b, Link{Drop: 0.5})
	if l, ok := st.LinkFor(a, b); !ok || l.Drop != 0.5 {
		t.Fatalf("LinkFor(a,b) = %v, %v", l, ok)
	}
	if _, ok := st.LinkFor(b, a); ok {
		t.Fatal("links are directed; b→a has no spec")
	}
	st.SetLink(-1, -1, Link{Dup: 0.1})
	if l, ok := st.LinkFor(b, a); !ok || l.Dup != 0.1 {
		t.Fatal("default link must cover unspecified pairs")
	}
	if l, _ := st.LinkFor(a, b); l.Drop != 0.5 {
		t.Fatal("specific link must shadow the default")
	}
	if _, ok := st.LinkFor(a, a); ok {
		t.Fatal("default link must not apply to self-pairs")
	}
	st.ClearLink(a, b)
	if l, ok := st.LinkFor(a, b); !ok || l.Dup != 0.1 {
		t.Fatal("cleared pair falls back to the default")
	}
	st.ClearLink(-1, -1)
	if st.Lossy() {
		t.Fatal("all links cleared")
	}
}

func TestLinkValidate(t *testing.T) {
	if err := (Link{Drop: 0.2, Dup: 0.1}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Link{Drop: 1.5}).Validate(); err == nil {
		t.Fatal("drop > 1 must fail validation")
	}
	if err := (Link{Dup: -0.1}).Validate(); err == nil {
		t.Fatal("negative dup must fail validation")
	}
}

func TestValidateDomains(t *testing.T) {
	known := func(m string) bool { return m == "m0" || m == "m1" || m == "m2" }
	ok := []Domain{
		{Name: "rack0", Machines: []string{"m0", "m1"}},
		{Name: "power", Machines: []string{"m0", "m2"}}, // overlap allowed
	}
	if err := ValidateDomains(ok, known); err != nil {
		t.Fatal(err)
	}
	bad := [][]Domain{
		{{Name: "", Machines: []string{"m0"}}},
		{{Name: "r", Machines: nil}},
		{{Name: "r", Machines: []string{"m0", "m0"}}},
		{{Name: "r", Machines: []string{"nope"}}},
		{{Name: "r", Machines: []string{"m0"}}, {Name: "r", Machines: []string{"m1"}}},
	}
	for i, ds := range bad {
		if err := ValidateDomains(ds, known); err == nil {
			t.Fatalf("case %d: want error", i)
		}
	}
}
