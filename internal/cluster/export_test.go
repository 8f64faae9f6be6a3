package cluster

import "uqsim/internal/des"

// Link is LinkAt by region name; an undeclared name is an unassigned
// endpoint.
func (g *Geography) Link(src, dst string) WANLink {
	i, ok := g.index[src]
	j, ok2 := g.index[dst]
	if !ok || !ok2 {
		return WANLink{}
	}
	return g.LinkAt(i, j)
}

// Delay is DelayAt by region name.
func (g *Geography) Delay(src, dst string, sizeKB float64) des.Time {
	return g.Link(src, dst).delay(sizeKB)
}

// Levels enumerates the discrete frequencies of the spec, ascending.
func (f FreqSpec) Levels() []float64 {
	if f.MaxMHz <= 0 || f.StepMHz <= 0 {
		return nil
	}
	var out []float64
	for m := f.MinMHz; m <= f.MaxMHz+1e-9; m += f.StepMHz {
		out = append(out, m)
	}
	return out
}
