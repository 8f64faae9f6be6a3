package hybrid

import "uqsim/internal/analytic"

// Point reports service idx's current epoch equilibrium.
func (st *State) Point(idx int) analytic.MMkPoint {
	if idx < 0 || idx >= len(st.points) {
		return analytic.MMkPoint{}
	}
	return st.points[idx].MMkPoint
}
