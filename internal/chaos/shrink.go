package chaos

// Shrink delta-debugs a violating scenario down to a locally minimal one:
// the classic ddmin loop over whole actions, where a candidate subset
// "reproduces" iff verifying it yields the same violation ID. Removing any
// single remaining action from the result makes the violation disappear,
// so the minimum is the sharpest repro this granularity can state.
//
// Shrinking keeps the scenario's seed fixed — the point is a deterministic
// artifact, and the violation must reproduce under the seed that found it.
func (h *Harness) Shrink(sc Scenario, targetID string) (Scenario, error) {
	actions := sc.Actions
	reproduces := func(subset []Action) (bool, error) {
		v, _, err := h.Verify(Scenario{Seed: sc.Seed, Actions: subset})
		if err != nil {
			return false, err
		}
		return v != nil && v.ID == targetID, nil
	}

	n := 2
	for len(actions) >= 2 {
		chunks := split(actions, n)
		reduced := false
		// Try each chunk alone, then each chunk's complement.
		for _, cand := range append(chunks, complements(actions, chunks)...) {
			if len(cand) == 0 || len(cand) == len(actions) {
				continue
			}
			ok, err := reproduces(cand)
			if err != nil {
				return sc, err
			}
			if ok {
				actions = cand
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(actions) {
				break // 1-minimal at action granularity
			}
			n = min(2*n, len(actions))
		}
	}
	return Scenario{Seed: sc.Seed, Actions: actions}, nil
}

// split partitions actions into n nearly equal contiguous chunks.
func split(actions []Action, n int) [][]Action {
	if n > len(actions) {
		n = len(actions)
	}
	out := make([][]Action, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(actions)/n, (i+1)*len(actions)/n
		out = append(out, actions[lo:hi])
	}
	return out
}

// complements returns, for each chunk, the actions outside it.
func complements(actions []Action, chunks [][]Action) [][]Action {
	out := make([][]Action, 0, len(chunks))
	pos := 0
	for _, c := range chunks {
		comp := make([]Action, 0, len(actions)-len(c))
		comp = append(comp, actions[:pos]...)
		comp = append(comp, actions[pos+len(c):]...)
		out = append(out, comp)
		pos += len(c)
	}
	return out
}
