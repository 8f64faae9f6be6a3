package trace

// Sampled reports how many requests were recorded.
func (t *Tracer) Sampled() int { return len(t.done) + len(t.open) }
