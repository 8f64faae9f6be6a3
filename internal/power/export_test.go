package power

// Violations reports cycles whose windowed p99 exceeded the QoS target.
func (m *Manager) Violations() int { return m.violations }
