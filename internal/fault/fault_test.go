package fault

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"uqsim/internal/des"
	"uqsim/internal/rng"
)

func TestEventValidation(t *testing.T) {
	good := []Event{
		{At: des.Second, Kind: CrashMachine, Machine: "m0"},
		{At: 2 * des.Second, Kind: RecoverMachine, Machine: "m0"},
		{At: 0, Kind: KillInstance, Service: "svc", Instance: -1},
		{At: 0, Kind: RestartInstance, Service: "svc", Instance: 1},
		{At: 0, Kind: DegradeFreq, Machine: "m0", FreqMHz: 1200},
		{At: des.Second, Kind: EdgeLatency, Service: "svc",
			Extra: des.Millisecond, Until: 2 * des.Second},
	}
	for i, e := range good {
		if err := e.Validate(); err != nil {
			t.Errorf("event %d (%s): unexpected error %v", i, e.Kind, err)
		}
	}
	bad := []Event{
		{At: -1, Kind: CrashMachine, Machine: "m0"},
		{Kind: CrashMachine},                // no machine
		{Kind: KillInstance},                // no service
		{Kind: DegradeFreq, Machine: "m0"},  // no freq
		{Kind: EdgeLatency, Service: "svc"}, // no latency
		{Kind: Kind(99), Machine: "m0"},     // unknown kind
		{At: des.Second, Kind: EdgeLatency, Service: "svc",
			Extra: des.Millisecond, Until: des.Millisecond}, // until before at
		{At: des.Second, Kind: DegradeFreq, Machine: "m0", FreqMHz: 1200,
			Until: des.Second}, // until at at: the window never opens
		{At: des.Second, Kind: DegradeFreq, Machine: "m0", FreqMHz: 1200,
			Until: des.Millisecond}, // until before at
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("bad event %d (%s): validation passed", i, e.Kind)
		}
	}
	// Kinds that do not heal at Until reject one instead of ignoring it,
	// and the error names the kind on the other side of the pair.
	for _, c := range []struct {
		e    Event
		want string
	}{
		{Event{Kind: CrashMachine, Machine: "m0", Until: des.Second}, "recover_machine"},
		{Event{Kind: RecoverMachine, Machine: "m0", Until: des.Second}, "crash_machine"},
		{Event{Kind: KillInstance, Service: "svc", Instance: -1, Until: des.Second}, "restart_instance"},
		{Event{Kind: RestartInstance, Service: "svc", Instance: -1, Until: des.Second}, "kill_instance"},
		{Event{Kind: CrashDomain, Domain: "rack", Until: des.Second}, "recover_domain"},
		{Event{Kind: RecoverDomain, Domain: "rack", Until: des.Second}, "crash_domain"},
	} {
		err := c.e.Validate()
		if err == nil || !strings.Contains(err.Error(), "until") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s with until: error %v should reject the until and name %s", c.e.Kind, err, c.want)
		}
	}
}

// TestKindsTable: every kind below the end of the table has a row whose
// name round-trips through ParseKind (in any case), and every recovery
// pairs with a non-windowed kind on the same single-name target, so
// Healing can key the pair by that name.
func TestKindsTable(t *testing.T) {
	if names := KindNames(); len(names) != int(kindEnd) {
		t.Fatalf("KindNames() lists %d kinds, table has %d rows", len(names), kindEnd)
	}
	seen := map[string]bool{}
	for k := Kind(0); k < kindEnd; k++ {
		row := kinds[k]
		if row.name == "" || seen[row.name] {
			t.Fatalf("kind %d: missing or duplicate name %q", int(k), row.name)
		}
		seen[row.name] = true
		if got, ok := ParseKind(k.String()); !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
		if got, ok := ParseKind(strings.ToUpper(k.String())); !ok || got != k {
			t.Errorf("ParseKind is case-sensitive for %q", k.String())
		}
		if _, recovery := k.recovers(); row.heal == healNever && !recovery {
			t.Errorf("%s never heals and heals nothing: its events could never be judged", k)
		}
		if row.heal != healByRecovery {
			continue
		}
		rec := kinds[row.by]
		if rec.heal == healAtUntil || rec.heal == healByRecovery || rec.target != row.target {
			t.Errorf("%s heals by %s, which must be a non-windowed kind on the same target", k, row.by)
		}
		if refs := (Event{Kind: k}).Refs(); len(refs) != 1 {
			t.Errorf("%s heals by recovery but its target names %d things, want 1", k, len(refs))
		}
		if healed, ok := row.by.recovers(); !ok || healed != k {
			t.Errorf("%s.recovers() = %v, %v; want %s", row.by, healed, ok, k)
		}
	}
	if _, ok := ParseKind("meteor_strike"); ok {
		t.Error("ParseKind accepted an unknown name")
	}
	if got := kindEnd.String(); got != fmt.Sprintf("kind(%d)", int(kindEnd)) {
		t.Errorf("out-of-table kind prints %q", got)
	}
}

// TestPlanHealing pairs recoveries with the faults they heal per target
// and requires every window to close.
func TestPlanHealing(t *testing.T) {
	s := des.Second
	cases := []struct {
		name   string
		events []Event
		heals  []int
	}{
		{"empty", nil, nil},
		{"crash without recover", []Event{{At: s, Kind: CrashMachine, Machine: "m0"}}, nil},
		{"crash recovered", []Event{
			{At: s, Kind: CrashMachine, Machine: "m0"},
			{At: 2 * s, Kind: RecoverMachine, Machine: "m0"},
		}, []int{1}},
		{"recovery on another machine", []Event{
			{At: s, Kind: CrashMachine, Machine: "m0"},
			{At: 2 * s, Kind: RecoverMachine, Machine: "m1"},
		}, nil},
		{"machine and domain of one name are different targets", []Event{
			{At: s, Kind: CrashDomain, Domain: "m0"},
			{At: 2 * s, Kind: RecoverMachine, Machine: "m0"},
		}, nil},
		{"kill restarted on its instance", []Event{
			{At: s, Kind: KillInstance, Service: "svc", Instance: 1},
			{At: 2 * s, Kind: RestartInstance, Service: "svc", Instance: 1},
		}, []int{1}},
		{"kill restarted on another instance", []Event{
			{At: s, Kind: KillInstance, Service: "svc", Instance: 1},
			{At: 2 * s, Kind: RestartInstance, Service: "svc", Instance: 0},
		}, nil},
		{"permanent window", []Event{{At: s, Kind: LoadStep, Factor: 2}}, nil},
		{"windows close", []Event{
			{At: s, Kind: LoadStep, Factor: 2, Until: 2 * s},
			{At: s, Kind: PartitionStart, GroupA: []string{"a"}, GroupB: []string{"b"}, Until: 3 * s},
		}, []int{0, 1}},
		{"extra recovery", []Event{{At: s, Kind: RecoverDomain, Domain: "rack"}}, []int{0}},
	}
	for _, c := range cases {
		p := Plan{Events: c.events}
		heals, ok := p.Healing()
		if ok != (c.heals != nil) || !slices.Equal(heals, c.heals) {
			t.Errorf("%s: Healing() = %v, %v; want %v", c.name, heals, ok, c.heals)
		}
	}
}

func TestPlanValidateNamesOffender(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: CrashMachine, Machine: "m0"},
		{Kind: KillInstance}, // invalid
	}}
	err := p.Validate()
	if err == nil {
		t.Fatal("invalid plan passed validation")
	}
}

func TestPolicyValidate(t *testing.T) {
	ok := Policy{Timeout: des.Millisecond, MaxRetries: 3,
		BackoffBase: 100 * des.Microsecond, BackoffJitter: 0.2}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	retriesWithoutTimeout := Policy{MaxRetries: 1}
	if err := retriesWithoutTimeout.Validate(); err == nil {
		t.Fatal("retries without timeout should fail validation")
	}
	badJitter := Policy{Timeout: des.Millisecond, BackoffJitter: 1.5}
	if err := badJitter.Validate(); err == nil {
		t.Fatal("jitter > 1 should fail validation")
	}
}

func TestBackoffDoublesAndJitters(t *testing.T) {
	p := Policy{BackoffBase: des.Millisecond}
	r := rng.New(1)
	if got := p.Backoff(1, r); got != des.Millisecond {
		t.Fatalf("attempt 1: %v, want 1ms", got)
	}
	if got := p.Backoff(3, r); got != 4*des.Millisecond {
		t.Fatalf("attempt 3: %v, want 4ms", got)
	}
	// Jitter keeps the delay within ±20% and actually varies.
	p.BackoffJitter = 0.2
	seen := map[des.Time]bool{}
	for i := 0; i < 32; i++ {
		d := p.Backoff(2, r)
		lo, hi := des.Time(float64(2*des.Millisecond)*0.8), des.Time(float64(2*des.Millisecond)*1.2)
		if d < lo || d > hi {
			t.Fatalf("jittered delay %v outside [%v,%v]", d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatal("jitter produced no variation")
	}
	// Zero base → immediate retry regardless of jitter.
	zero := Policy{BackoffJitter: 0.5}
	if got := zero.Backoff(2, r); got != 0 {
		t.Fatalf("zero base gave %v", got)
	}
}

func TestBackoffDeterministicPerStream(t *testing.T) {
	p := Policy{BackoffBase: des.Millisecond, BackoffJitter: 0.3}
	a, b := rng.New(7), rng.New(7)
	for i := 1; i <= 8; i++ {
		if da, db := p.Backoff(i, a), p.Backoff(i, b); da != db {
			t.Fatalf("attempt %d: %v vs %v", i, da, db)
		}
	}
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b := NewBreaker(BreakerSpec{ErrorThreshold: 0.5, Window: 4, Cooldown: des.Second})
	now := des.Time(0)
	// 3 successes + 1 failure: 25% < 50%, stays closed.
	for _, f := range []bool{false, false, false, true} {
		b.Record(now, f)
	}
	if b.State(now) != BreakerClosed {
		t.Fatalf("state %v after 25%% errors", b.State(now))
	}
	// Slide in another failure: window is now {f,f,t,t}? No — rolling:
	// oldest success evicted. Keep feeding failures until ≥50%.
	b.Record(now, true)
	if b.State(now) != BreakerOpen {
		t.Fatalf("state %v, want open at 50%% errors", b.State(now))
	}
	if b.Trips() != 1 {
		t.Fatalf("trips %d", b.Trips())
	}
	if b.Allow(now) {
		t.Fatal("open breaker allowed a call")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b := NewBreaker(BreakerSpec{ErrorThreshold: 0.5, Window: 2, Cooldown: 10 * des.Millisecond})
	b.Record(0, true)
	b.Record(0, true)
	if b.State(0) != BreakerOpen {
		t.Fatal("breaker should be open")
	}
	// Before cooldown: blocked.
	if b.Allow(5 * des.Millisecond) {
		t.Fatal("allowed during cooldown")
	}
	// After cooldown: exactly one probe.
	now := 11 * des.Millisecond
	if !b.Allow(now) {
		t.Fatal("half-open should admit one probe")
	}
	if b.Allow(now) {
		t.Fatal("second probe admitted while first outstanding")
	}
	// Probe fails → reopen, fresh cooldown.
	b.Record(now, true)
	if b.State(now) != BreakerOpen {
		t.Fatalf("state %v after failed probe", b.State(now))
	}
	if b.Allow(now + 5*des.Millisecond) {
		t.Fatal("reopened breaker allowed a call inside new cooldown")
	}
	// Next probe succeeds → closed, window cleared.
	now += 12 * des.Millisecond
	if !b.Allow(now) {
		t.Fatal("second half-open probe blocked")
	}
	b.Record(now, false)
	if b.State(now) != BreakerClosed {
		t.Fatalf("state %v after successful probe", b.State(now))
	}
	// One failure in the fresh window must not trip (window not full).
	b.Record(now, true)
	if b.State(now) != BreakerClosed {
		t.Fatal("tripped on a partially filled window")
	}
}

func TestBreakerIgnoresLateOutcomesWhileOpen(t *testing.T) {
	b := NewBreaker(BreakerSpec{ErrorThreshold: 1, Window: 1, Cooldown: des.Second})
	b.Record(0, true)
	if b.State(0) != BreakerOpen {
		t.Fatal("should be open")
	}
	// A straggler success from before the trip must not close it.
	b.Record(des.Millisecond, false)
	if b.State(des.Millisecond) != BreakerOpen {
		t.Fatal("late outcome closed an open breaker")
	}
}

func TestBreakerCancelProbeReleasesSlot(t *testing.T) {
	b := NewBreaker(BreakerSpec{ErrorThreshold: 0.5, Window: 2, Cooldown: 10 * des.Millisecond})
	b.Record(0, true)
	b.Record(0, true)
	now := 11 * des.Millisecond
	if !b.Allow(now) {
		t.Fatal("half-open should admit one probe")
	}
	if !b.Probing() {
		t.Fatal("probe slot should be held")
	}
	if b.Allow(now) {
		t.Fatal("second probe admitted while first outstanding")
	}
	// The probe is torn down without an outcome (deadline expiry, hedge
	// race loss). Before CancelProbe existed this starved the breaker
	// forever: Allow refused every call and Record was never reached.
	b.CancelProbe()
	if b.Probing() {
		t.Fatal("CancelProbe did not release the slot")
	}
	if !b.Allow(now) {
		t.Fatal("replacement probe blocked after cancellation")
	}
	b.Record(now, false)
	if b.State(now) != BreakerClosed {
		t.Fatalf("state %v after successful replacement probe", b.State(now))
	}
	// Outside half-open, CancelProbe is a no-op.
	b.CancelProbe()
	if b.State(now) != BreakerClosed || b.Probing() {
		t.Fatal("CancelProbe perturbed a closed breaker")
	}
	if !b.Allow(now) {
		t.Fatal("closed breaker should admit calls")
	}
}

func TestLoadStepValidation(t *testing.T) {
	ok := Event{At: des.Second, Until: 2 * des.Second, Kind: LoadStep, Factor: 2}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid load_step rejected: %v", err)
	}
	for _, bad := range []Event{
		{At: des.Second, Kind: LoadStep},                                      // no factor
		{At: des.Second, Kind: LoadStep, Factor: -1},                          // negative factor
		{At: des.Second, Until: des.Millisecond, Kind: LoadStep, Factor: 1.5}, // until before at
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("invalid load_step %+v accepted", bad)
		}
	}
	if LoadStep.String() != "load_step" {
		t.Fatalf("kind name %q", LoadStep.String())
	}
}
