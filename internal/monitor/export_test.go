package monitor

import (
	"fmt"
	"strings"
)

// CSV renders all series as one CSV document (t_s, then one column per
// target per metric).
func (m *Monitor) CSV() string {
	var b strings.Builder
	b.WriteString("t_s")
	for _, s := range m.series {
		fmt.Fprintf(&b, ",%s_qlen,%s_inflight,%s_util", s.Name, s.Name, s.Name)
		if s.Shed != nil {
			fmt.Fprintf(&b, ",%s_shed,%s_dropped", s.Name, s.Name)
		}
		if s.Up != nil {
			fmt.Fprintf(&b, ",%s_up", s.Name)
		}
		if s.Canceled != nil {
			fmt.Fprintf(&b, ",%s_canceled,%s_wasted", s.Name, s.Name)
		}
	}
	for _, g := range m.gauges {
		fmt.Fprintf(&b, ",%s", g.Name)
	}
	b.WriteByte('\n')
	if len(m.series) == 0 {
		return b.String()
	}
	n := len(m.series[0].QueueLen.Points())
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%.3f", m.series[0].QueueLen.Points()[i].T.Seconds())
		for _, s := range m.series {
			if i < len(s.QueueLen.Points()) {
				fmt.Fprintf(&b, ",%.0f,%.0f,%.3f",
					s.QueueLen.Points()[i].V,
					s.InFlight.Points()[i].V,
					s.Util.Points()[i].V)
				if s.Shed != nil {
					fmt.Fprintf(&b, ",%.0f,%.0f", s.Shed.Points()[i].V, s.Dropped.Points()[i].V)
				}
				if s.Up != nil {
					fmt.Fprintf(&b, ",%.0f", s.Up.Points()[i].V)
				}
				if s.Canceled != nil {
					fmt.Fprintf(&b, ",%.0f,%.0f", s.Canceled.Points()[i].V, s.Wasted.Points()[i].V)
				}
			} else {
				b.WriteString(",,,")
				if s.Shed != nil {
					b.WriteString(",,")
				}
				if s.Up != nil {
					b.WriteString(",")
				}
				if s.Canceled != nil {
					b.WriteString(",,")
				}
			}
		}
		for _, g := range m.gauges {
			if i < len(g.Points()) {
				fmt.Fprintf(&b, ",%g", g.Points()[i].V)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
