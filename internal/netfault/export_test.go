package netfault

// Partitioned reports whether any partition is currently open.
func (st *State) Partitioned() bool { return st.open > 0 }
