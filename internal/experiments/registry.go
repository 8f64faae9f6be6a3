package experiments

import "fmt"

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

// Run executes one experiment by ID. The table's Cost totals its cells.
func Run(id string, o Opts) (*Table, error) {
	sp, ok := specs[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, Names())
	}
	rs, err := execute(id, sp.Cells(o))
	if err != nil {
		return nil, err
	}
	t, err := sp.Reduce(o, rs)
	if err != nil {
		return nil, err
	}
	t.Cost = Cost{Cells: len(rs)}
	for _, r := range rs {
		t.Cost.Events += r.Events
		t.Cost.Wall += r.Wall
	}
	return t, nil
}
