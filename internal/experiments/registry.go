package experiments

import (
	"context"
	"fmt"
	"runtime"
)

// specs maps experiment IDs to their specs. IDs follow the paper's
// numbering, then the DESIGN.md ablations, then the extensions beyond the
// paper.
var specs = map[string]Spec{
	"fig5":              fig5,
	"fig6":              fig6,
	"fig8":              fig8,
	"fig10":             fig10,
	"fig12a":            fig12a,
	"fig12b":            fig12b,
	"fig13":             fig13,
	"fig14":             fig14,
	"fig15":             fig15,
	"fig16":             fig16,
	"table3":            table3,
	"ablation-batching": ablationBatching,
	"ablation-netproc":  ablationNetproc,
	"ablation-blocking": ablationBlocking,
	"ablation-lb":       ablationLB,
	"validation":        validation,
	"scalability":       scalability,
	"ext-timeouts":      extTimeouts,
	"ext-cache":         extCache,
	"resilience":        resilience,
	"overload":          overload,
	"metastable":        metastable,
	"selfhealing":       selfHealing,
	"regionloss":        regionLoss,
	"chaos":             chaosSearch,
	"hybridfault":       hybridFault,
	"millionuser":       millionUser,
}

// Names lists registered experiment IDs in sorted order.
func Names() []string { return sortedKeys(specs) }

// Run executes one experiment by ID, its cells side by side on
// runtime.GOMAXPROCS(0) goroutines and every cell bound to ctx: once ctx
// is done the running simulations stop and later ones process no event,
// so the table comes back partial (or the reducer fails on a truncated
// run). The table's Cost totals its cells.
func Run(ctx context.Context, id string, o Opts) (*Table, error) {
	return run(ctx, id, o, runtime.GOMAXPROCS(0))
}

func run(ctx context.Context, id string, o Opts, width int) (*Table, error) {
	sp, ok := specs[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, Names())
	}
	rs, err := execute(ctx, id, sp.Cells(o), width)
	if err != nil {
		return nil, err
	}
	t, err := sp.Reduce(o, rs)
	if err != nil {
		return nil, err
	}
	for _, r := range rs {
		if r.Rep == nil {
			t.Cost.Funcs++
			t.Cost.FuncWall += r.Wall
			continue
		}
		t.Cost.Cells++
		t.Cost.Events += r.Events
		t.Cost.Wall += r.Wall
	}
	return t, nil
}
