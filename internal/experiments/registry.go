package experiments

import (
	"fmt"
	"sort"
)

// Runner regenerates one paper table or figure.
type Runner func(Opts) (*Table, error)

// Registry maps experiment IDs to runners. IDs follow the paper's
// numbering, then the DESIGN.md ablations, then the extensions beyond the
// paper.
var Registry = map[string]Runner{
	"fig5":              Fig5TwoTier,
	"fig6":              Fig6ThreeTier,
	"fig8":              Fig8LoadBalancing,
	"fig10":             Fig10Fanout,
	"fig12a":            Fig12aThrift,
	"fig12b":            Fig12bSocialNetwork,
	"fig13":             Fig13BigHouse,
	"fig14":             Fig14TailAtScale,
	"fig15":             Fig15Diurnal,
	"fig16":             Fig16PowerTrace,
	"table3":            Table3PowerViolations,
	"ablation-batching": AblationNoBatching,
	"ablation-netproc":  AblationNoNetproc,
	"ablation-blocking": AblationNoBlocking,
	"ablation-lb":       AblationLBPolicies,
	"validation":        Validation,
	"scalability":       Scalability,
	"ext-timeouts":      ExtTimeouts,
	"ext-cache":         ExtEmergentCache,
	"resilience":        Resilience,
	"overload":          Overload,
	"metastable":        Metastable,
	"selfhealing":       SelfHealing,
	"regionloss":        RegionLoss,
	"chaos":             Chaos,
	"hybridfault":       HybridFault,
	"millionuser":       MillionUser,
}

// Names lists registered experiment IDs in sorted order.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, o Opts) (*Table, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, Names())
	}
	return r(o)
}
