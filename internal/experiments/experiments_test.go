package experiments

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"uqsim/internal/des"
	"uqsim/internal/sim"
)

func TestTableFormatting(t *testing.T) {
	tb := NewTable("Demo", "a", "long_column", "c")
	tb.Note = "a note"
	tb.Add("1", "2", "3")
	tb.Add("wide-cell", "x", "y")
	s := tb.String()
	if !strings.Contains(s, "== Demo ==") || !strings.Contains(s, "a note") {
		t.Fatalf("missing title/note:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// Title, note, header, separator, two rows.
	if len(lines) != 6 {
		t.Fatalf("line count %d:\n%s", len(lines), s)
	}
	// Header and rows align: same prefix widths.
	if len(lines[2]) != len(lines[3]) {
		t.Fatalf("separator not aligned with header:\n%s", s)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.Add("1,5", `say "hi"`)
	csv := tb.CSV()
	want := "a,b\n\"1,5\",\"say \"\"hi\"\"\"\n"
	if csv != want {
		t.Fatalf("csv = %q, want %q", csv, want)
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tb := NewTable("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	tb.Add("only-one")
}

func TestOptsScaling(t *testing.T) {
	o := Opts{Scale: 0}
	if o.scale() != 1 {
		t.Fatal("zero scale should clamp to 1")
	}
	o = Opts{Scale: 0.25}
	w, d := o.window(1000, 4000)
	// Clamped to floors.
	if w < 1 || d < 1 {
		t.Fatal("window must stay positive")
	}
	loads := o.thin([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	if len(loads) < 2 || loads[0] != 1 || loads[len(loads)-1] != 8 {
		t.Fatalf("thinned %v must keep endpoints", loads)
	}
	full := Opts{Scale: 1}
	if got := full.thin([]float64{1, 2, 3}); len(got) != 3 {
		t.Fatal("scale 1 should not thin")
	}
}

func TestGrid(t *testing.T) {
	g, err := SweepGrid(10, 50, 10)
	if err != nil || len(g) != 5 || g[0] != 10 || g[4] != 50 {
		t.Fatalf("grid %v, %v", g, err)
	}
}

// TestSweepGridRejectsEndlessGrids: every grid whose expansion would
// never finish is an error, including a step that advances the load at
// to but not at from.
func TestSweepGridRejectsEndlessGrids(t *testing.T) {
	g, err := SweepGrid(18000, 26000, 2000)
	if err != nil || len(g) != 5 || g[0] != 18000 || g[4] != 26000 {
		t.Fatalf("SweepGrid(18000, 26000, 2000) = %v, %v", g, err)
	}
	for _, c := range [][3]float64{
		{1000, math.Inf(1), 1000},
		{math.NaN(), 2000, 1000},
		{1000, 2000, math.Inf(1)},
		{0, 2000, 1000},
		{-1000, 2000, 1000},
		{1000, 2000, 0},
		{2000, 1000, 1000},
		{20000, 30000, 1e-13},
		{1e16, 1e16 + 2, 1}, // 1e16+2 rounds up by 1, 1e16 rounds back to itself
	} {
		if g, err := SweepGrid(c[0], c[1], c[2]); err == nil {
			t.Errorf("SweepGrid(%g, %g, %g) accepted, expanded to %d points", c[0], c[1], c[2], len(g))
		}
	}
}

// TestRegistryNamesAndUnknown pins the ids `uqsim experiments -list`
// prints, in its order.
func TestRegistryNamesAndUnknown(t *testing.T) {
	want := []string{
		"ablation-batching", "ablation-blocking", "ablation-lb", "ablation-netproc",
		"chaos", "ext-cache", "ext-timeouts",
		"fig10", "fig12a", "fig12b", "fig13", "fig14", "fig15", "fig16", "fig5", "fig6", "fig8",
		"hybridfault", "metastable", "millionuser", "overload", "regionloss", "resilience",
		"scalability", "selfhealing", "table3", "validation",
	}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %q, want %q", got, want)
	}
	if _, err := Run(context.Background(), "nope", Opts{}); err == nil {
		t.Fatal("unknown id should fail")
	}
}

// TestCellErrorNamesIDAndLabel: a cell that fails to build fails its
// experiment with an error naming the experiment and the cell.
func TestCellErrorNamesIDAndLabel(t *testing.T) {
	boom := errors.New("boom")
	_, err := execute(context.Background(), "fig5", []Cell{{
		Label: []string{"nginx8p-mc4t", "10000"},
		Build: func() (*sim.Sim, error) { return nil, boom },
	}}, 1)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "fig5 nginx8p-mc4t/10000") {
		t.Fatalf("err = %v, want boom naming fig5 and nginx8p-mc4t/10000", err)
	}
}

// TestCellsAreIndependent: running an experiment's cells four at a time
// gives the table running them one after another gives, byte for byte.
// State shared between cells (a captured map, one goodputBins for two
// runs) fails it, and so does a race under -race.
func TestCellsAreIndependent(t *testing.T) {
	o := Opts{Seed: 5, Scale: 0.05}
	for _, id := range []string{"resilience", "overload", "ablation-lb"} {
		one, err := run(context.Background(), id, o, 1)
		if err != nil {
			t.Fatal(err)
		}
		four, err := run(context.Background(), id, o, 4)
		if err != nil {
			t.Fatal(err)
		}
		if one.String() != four.String() {
			t.Errorf("%s: cells run four at a time give another table:\n%s\none at a time:\n%s", id, four, one)
		}
	}
}

// smokeWidth is the pool width the smoke tests run their cells at: at
// least two, so -race sees cells side by side on any host.
var smokeWidth = max(2, runtime.GOMAXPROCS(0))

// smoke runs an experiment at tiny scale and sanity-checks the table.
func smoke(t *testing.T, id string) *Table {
	t.Helper()
	tb, err := run(context.Background(), id, Opts{Seed: 5, Scale: 0.05}, smokeWidth)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tb.Rows) == 0 {
		t.Fatalf("%s: no rows", id)
	}
	for _, row := range tb.Rows {
		if len(row) != len(tb.Columns) {
			t.Fatalf("%s: ragged row %v", id, row)
		}
	}
	return tb
}

func TestResilienceSmoke(t *testing.T) {
	tb := smoke(t, "resilience")
	if len(tb.Rows) != 8 {
		t.Fatalf("rows %d, want 8 scenarios", len(tb.Rows))
	}
	leakCol := len(tb.Columns) - 1
	for _, r := range tb.Rows {
		if r[leakCol] != "0" {
			t.Fatalf("scenario %s/%s leaked %s requests", r[0], r[1], r[leakCol])
		}
	}
}

func TestOverloadSmoke(t *testing.T) {
	tb := smoke(t, "overload")
	leakCol := len(tb.Columns) - 1
	// goodput per config at the highest load (1.5×) and at the peak.
	at15 := map[string]float64{}
	peak := map[string]float64{}
	for _, r := range tb.Rows {
		if r[leakCol] != "0" {
			t.Fatalf("%s at %s× leaked %s requests", r[0], r[1], r[leakCol])
		}
		g, err := strconv.ParseFloat(r[3], 64)
		if err != nil {
			t.Fatalf("unparseable goodput in %v", r)
		}
		if g > peak[r[0]] {
			peak[r[0]] = g
		}
		if r[1] == "1.50" {
			at15[r[0]] = g
		}
	}
	// The acceptance criterion: with deadlines + CoDel-LIFO (+ hedging),
	// goodput at 1.5× saturation stays within 2× of the config's peak,
	// while the FIFO baseline's backlog outgrows the client's patience
	// and goodput collapses.
	for _, cfg := range []string{"deadline-codel-lifo", "deadline-codel-lifo-hedge"} {
		if at15[cfg] < peak[cfg]/2 {
			t.Fatalf("%s: goodput %v at 1.5× vs peak %v — should degrade gracefully",
				cfg, at15[cfg], peak[cfg])
		}
	}
	if base := at15["fifo-baseline"]; base > at15["deadline-codel-lifo"]/4 {
		t.Fatalf("fifo-baseline goodput %v at 1.5× should collapse (graceful: %v)",
			base, at15["deadline-codel-lifo"])
	}
}

func TestFig5Smoke(t *testing.T) {
	tb := smoke(t, "fig5")
	// Four configurations appear.
	labels := map[string]bool{}
	for _, r := range tb.Rows {
		labels[r[0]] = true
	}
	if len(labels) != 4 {
		t.Fatalf("configs %v", labels)
	}
}

func TestFig6Smoke(t *testing.T)  { smoke(t, "fig6") }
func TestFig10Smoke(t *testing.T) { smoke(t, "fig10") }

func TestFig8Smoke(t *testing.T) {
	tb := smoke(t, "fig8")
	labels := map[string]bool{}
	for _, r := range tb.Rows {
		labels[r[0]] = true
	}
	for _, want := range []string{"scaleout-4", "scaleout-8", "scaleout-16"} {
		if !labels[want] {
			t.Fatalf("missing %s in %v", want, labels)
		}
	}
}

func TestFig12aSmoke(t *testing.T) { smoke(t, "fig12a") }
func TestFig12bSmoke(t *testing.T) { smoke(t, "fig12b") }

func TestFig13SmokeShowsBothSimulators(t *testing.T) {
	tb := smoke(t, "fig13")
	sims := map[string]bool{}
	for _, r := range tb.Rows {
		sims[r[1]] = true
	}
	if !sims["uqsim"] || !sims["bighouse"] {
		t.Fatalf("simulators %v", sims)
	}
}

func TestFig14SmokeAnalyticColumn(t *testing.T) {
	tb := smoke(t, "fig14")
	for _, r := range tb.Rows {
		if r[1] == "0.00" {
			// No slow servers: measured p99 should be within ~2× of
			// the analytic zero-load value.
			got, err1 := strconv.ParseFloat(r[2], 64)
			ref, err2 := strconv.ParseFloat(r[3], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("unparseable row %v", r)
			}
			if got < ref*0.5 || got > ref*2.5 {
				t.Fatalf("p99 %v vs analytic %v (row %v)", got, ref, r)
			}
		}
	}
}

func TestFig15Smoke(t *testing.T)  { smoke(t, "fig15") }
func TestFig16Smoke(t *testing.T)  { smoke(t, "fig16") }
func TestTable3Smoke(t *testing.T) { smoke(t, "table3") }

func TestAblationBatchingSmoke(t *testing.T) {
	tb := smoke(t, "ablation-batching")
	batched, _ := strconv.ParseFloat(tb.Rows[0][1], 64)
	unbatched, _ := strconv.ParseFloat(tb.Rows[1][1], 64)
	if batched <= unbatched {
		t.Fatalf("batching should raise capacity: %v vs %v", batched, unbatched)
	}
}

func TestAblationNetprocSmoke(t *testing.T) {
	tb := smoke(t, "ablation-netproc")
	// At 16 servers the netproc-less variant should have higher capacity.
	for _, r := range tb.Rows {
		if r[0] == "16" {
			with, _ := strconv.ParseFloat(r[1], 64)
			without, _ := strconv.ParseFloat(r[2], 64)
			if without <= with {
				t.Fatalf("16-way: netproc should bind capacity (%v vs %v)", with, without)
			}
		}
	}
}

func TestAblationBlockingSmoke(t *testing.T) {
	tb := smoke(t, "ablation-blocking")
	blockedInFlight, _ := strconv.Atoi(tb.Rows[0][3])
	openInFlight, _ := strconv.Atoi(tb.Rows[1][3])
	if openInFlight <= blockedInFlight {
		t.Fatalf("without pools in-flight should explode: %d vs %d",
			blockedInFlight, openInFlight)
	}
}

func TestAblationLBSmoke(t *testing.T) { smoke(t, "ablation-lb") }

func TestValidationSmoke(t *testing.T) {
	tb := smoke(t, "validation")
	fails := 0
	for _, r := range tb.Rows {
		if r[5] == "FAIL" {
			fails++
		}
	}
	// Short smoke windows are noisy; just ensure most checks pass.
	if fails > len(tb.Rows)/3 {
		t.Fatalf("%d of %d validation checks failed at smoke scale", fails, len(tb.Rows))
	}
}

func TestExtTimeoutsSmoke(t *testing.T) {
	tb := smoke(t, "ext-timeouts")
	// The timeout clients must record timeouts at the overloaded points.
	sawTimeouts := false
	for _, r := range tb.Rows {
		if r[0] != "patient" && r[4] != "0.0%" {
			sawTimeouts = true
		}
		if r[0] == "patient" && r[4] != "0.0%" {
			t.Fatalf("patient client cannot time out: %v", r)
		}
	}
	if !sawTimeouts {
		t.Fatal("timeout clients never timed out under overload")
	}
}

func TestScalabilitySmoke(t *testing.T) {
	tb := smoke(t, "scalability")
	if len(tb.Rows) < 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	prev := 0
	for _, r := range tb.Rows {
		events, err := strconv.Atoi(r[3])
		if err != nil || events == 0 {
			t.Fatalf("events %q in %v", r[3], r)
		}
		// More servers fan each request out wider: more events per run.
		if events <= prev {
			t.Fatalf("events do not grow with cluster size: %v", tb.Rows)
		}
		prev = events
		if _, err := strconv.ParseFloat(r[5], 64); err != nil {
			t.Fatalf("unparseable events_per_wall_s %q in %v", r[5], r)
		}
	}
}

func TestExtCacheSmoke(t *testing.T) {
	tb := smoke(t, "ext-cache")
	prev := -1.0
	for _, r := range tb.Rows {
		hit, err := strconv.ParseFloat(r[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if hit < prev-0.02 {
			t.Fatalf("hit ratio should grow with cache size: %v", tb.Rows)
		}
		prev = hit
	}
}

func TestSelfHealingSmoke(t *testing.T) {
	tb := smoke(t, "selfhealing")
	if len(tb.Rows) != 7 {
		t.Fatalf("rows %d, want 7", len(tb.Rows))
	}
	leakCol := len(tb.Columns) - 1
	cells := map[string][]string{}
	for _, r := range tb.Rows {
		if r[leakCol] != "0" {
			t.Fatalf("%s/%s leaked %s requests", r[0], r[1], r[leakCol])
		}
		cells[r[0]+"/"+r[1]] = r
	}
	// (a) the baseline never regains 90% goodput; failover does, fast.
	if got := cells["a:instance-crash/no-control"][4]; got != "-" {
		t.Fatalf("baseline recovered (mttr %s) without a control plane", got)
	}
	mttr, err := strconv.ParseFloat(cells["a:instance-crash/detect+failover"][4], 64)
	if err != nil || mttr <= 0 || mttr > 500 {
		t.Fatalf("failover mttr %q, want bounded positive ms", cells["a:instance-crash/detect+failover"][4])
	}
	if !strings.Contains(cells["a:instance-crash/detect+failover"][5], "fo=1") {
		t.Fatalf("failover actions %q", cells["a:instance-crash/detect+failover"][5])
	}
	// (b) ejection must cut the gray-failure p99.
	baseP99, _ := strconv.ParseFloat(cells["b:gray-failure/no-control"][3], 64)
	ejP99, _ := strconv.ParseFloat(cells["b:gray-failure/outlier-ejection"][3], 64)
	if ejP99 <= 0 || ejP99 >= baseP99 {
		t.Fatalf("ejection p99 %.3fms did not improve on baseline %.3fms", ejP99, baseP99)
	}
	// (c) the autoscaler must act on the load step.
	if !strings.Contains(cells["c:load-step/autoscale-max-3"][5], "up=") ||
		strings.Contains(cells["c:load-step/autoscale-max-3"][5], "up=0") {
		t.Fatalf("autoscale actions %q", cells["c:load-step/autoscale-max-3"][5])
	}
	// (d) identical rerun.
	if got := cells["d:determinism/failover-rerun"][5]; got != "stable" {
		t.Fatalf("determinism verdict %q", got)
	}
}

func TestChaosSmoke(t *testing.T) {
	tb := smoke(t, "chaos")
	if len(tb.Rows) != 3 {
		t.Fatalf("rows %d, want find/shrink/replay", len(tb.Rows))
	}
	if tb.Rows[0][2] != "recovery-goodput" {
		t.Fatalf("find step violated %q, want recovery-goodput", tb.Rows[0][2])
	}
	if tb.Rows[1][3] != "partition m0|m1 (the killer)" {
		t.Fatalf("shrink kept %q, want just the partition", tb.Rows[1][3])
	}
	if tb.Rows[2][3] != "fingerprint reproduces bit-identically" {
		t.Fatalf("replay: %q", tb.Rows[2][3])
	}
}

func TestHybridFaultSmoke(t *testing.T) {
	tb := smoke(t, "hybridfault")
	// during(full,hybrid) + after(full,hybrid) + equiv + attrib + chaos.
	if len(tb.Rows) != 7 {
		t.Fatalf("rows %d, want 7", len(tb.Rows))
	}
	leakCol := len(tb.Columns) - 1
	rows := map[string][]string{}
	for _, r := range tb.Rows {
		if r[leakCol] != "0" {
			t.Fatalf("%s/%s leaked %s requests", r[0], r[1], r[leakCol])
		}
		rows[r[0]+"/"+r[1]] = r
	}
	// Attribution must carry the full fault vocabulary even at smoke scale
	// (the runner already enforces nonzero buckets and the exact sum).
	attr := rows["attrib/hybrid"][10]
	for _, cause := range []string{"degrade_freq", "partition", "gray_link"} {
		if !strings.Contains(attr, cause+":") {
			t.Fatalf("attribution %q missing %s", attr, cause)
		}
	}
	if got := rows["chaos/hybrid"][8]; got != "pass" {
		t.Fatalf("hybrid chaos search verdict %q", got)
	}
}

func TestMillionUserSmoke(t *testing.T) {
	tb := smoke(t, "millionuser")
	// 3×(full,hybrid) + unit-rate equivalence + million-user scale row.
	if len(tb.Rows) != 8 {
		t.Fatalf("rows %d, want 8", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[len(row)-1] != "0" {
			t.Fatalf("leak column %v", row)
		}
	}
	last := tb.Rows[len(tb.Rows)-1]
	if last[11] == "-" {
		t.Fatalf("scale row missing speedup: %v", last)
	}
}

// TestConcurrentCampaignsShareNothing runs two experiments at once in one
// process, each under its own context, resilience with its cells side by
// side. The overload campaign's context is cancelled by an event halfway
// through its middle cell's window. Its cells run one at a time, so the
// cells before that one run whole beside resilience, that cell stops short
// or runs out, and every cell after it processes no event; at a larger
// width a later cell may already have started. The resilience run beside
// it must not notice: its table equals its serial run's byte for byte.
func TestConcurrentCampaignsShareNothing(t *testing.T) {
	o := Opts{Seed: 5, Scale: 0.05}
	serial, err := run(context.Background(), "resilience", o, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cells := specs["overload"].Cells(o)
	mid := len(cells) / 2
	c := cells[mid]
	build := c.Build
	cells[mid].Build = func() (*sim.Sim, error) {
		s, err := build()
		if err == nil {
			s.Engine().At(c.Warmup+c.Window/2, func(des.Time) { cancel() })
		}
		return s, err
	}
	var wg sync.WaitGroup
	var res *Table
	var ovl []Result
	var resErr, ovlErr error
	wg.Add(2)
	go func() { defer wg.Done(); res, resErr = run(context.Background(), "resilience", o, smokeWidth) }()
	go func() { defer wg.Done(); ovl, ovlErr = execute(ctx, "overload", cells, 1) }()
	wg.Wait()
	if resErr != nil {
		t.Fatal(resErr)
	}
	if got, want := res.CSV(), serial.CSV(); got != want {
		t.Fatalf("resilience beside a cancelled overload run:\n%s\nserial:\n%s", got, want)
	}
	if ovlErr != nil {
		return // interrupted: the cut cell failed its conservation check
	}
	for i, r := range ovl {
		if i < mid && r.Events == 0 {
			t.Fatalf("overload cell %d before the cancel processed no events", i)
		}
		if i > mid && r.Events != 0 {
			t.Fatalf("overload cell %d after the cancel processed %d events, want 0", i, r.Events)
		}
	}
}
