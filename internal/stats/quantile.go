package stats

// P2Quantile is a streaming quantile estimator using the P² algorithm
// (Jain & Chlamtac 1985): five markers track the running q-quantile in O(1)
// memory and O(1) per observation, with no sampling and no randomness —
// the estimate is a deterministic function of the observation sequence,
// which the simulator's reproducibility guarantee relies on. The hedging
// policy uses one per edge to track e.g. the p95 of observed RPC latency.
type P2Quantile struct {
	q       float64
	n       uint64
	heights [5]float64 // marker heights (estimates)
	pos     [5]float64 // actual marker positions (1-based)
	want    [5]float64 // desired marker positions
	incr    [5]float64 // desired position increments per observation
}

// NewP2Quantile returns an estimator for the q-quantile, q in (0,1).
func NewP2Quantile(q float64) *P2Quantile {
	if q <= 0 || q >= 1 {
		panic("stats: P2 quantile must be in (0,1)")
	}
	p := &P2Quantile{q: q}
	p.Reset()
	return p
}

// Reset forgets every observation: the estimator is then the one
// NewP2Quantile returns for its quantile, reused without an allocation.
func (p *P2Quantile) Reset() {
	q := p.q
	*p = P2Quantile{
		q:    q,
		pos:  [5]float64{1, 2, 3, 4, 5},
		want: [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5},
		incr: [5]float64{0, q / 2, q, (1 + q) / 2, 1},
	}
}

// Count reports the number of observations recorded.
func (p *P2Quantile) Count() uint64 { return p.n }

// Add records one observation.
func (p *P2Quantile) Add(x float64) {
	if p.n < 5 {
		// Insertion sort into the initial marker set.
		i := int(p.n)
		p.heights[i] = x
		for i > 0 && p.heights[i-1] > p.heights[i] {
			p.heights[i-1], p.heights[i] = p.heights[i], p.heights[i-1]
			i--
		}
		p.n++
		return
	}
	// Find the cell k with heights[k] <= x < heights[k+1], clamping x into
	// the observed range.
	var k int
	switch {
	case x < p.heights[0]:
		p.heights[0] = x
		k = 0
	case x >= p.heights[4]:
		p.heights[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < p.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := range p.want {
		p.want[i] += p.incr[i]
	}
	p.n++
	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := p.want[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			h := p.parabolic(i, sign)
			if p.heights[i-1] < h && h < p.heights[i+1] {
				p.heights[i] = h
			} else {
				p.heights[i] = p.linear(i, sign)
			}
			p.pos[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for marker i
// moved by d (±1).
func (p *P2Quantile) parabolic(i int, d float64) float64 {
	return p.heights[i] + d/(p.pos[i+1]-p.pos[i-1])*
		((p.pos[i]-p.pos[i-1]+d)*(p.heights[i+1]-p.heights[i])/(p.pos[i+1]-p.pos[i])+
			(p.pos[i+1]-p.pos[i]-d)*(p.heights[i]-p.heights[i-1])/(p.pos[i]-p.pos[i-1]))
}

// linear is the fallback height prediction when the parabola overshoots a
// neighbouring marker.
func (p *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return p.heights[i] + d*(p.heights[j]-p.heights[i])/(p.pos[j]-p.pos[i])
}

// Value reports the current quantile estimate. Before five observations it
// falls back to the nearest-rank quantile of what has been seen (0 with no
// observations).
func (p *P2Quantile) Value() float64 {
	if p.n == 0 {
		return 0
	}
	if p.n < 5 {
		idx := int(p.q * float64(p.n))
		if idx >= int(p.n) {
			idx = int(p.n) - 1
		}
		return p.heights[idx]
	}
	return p.heights[2]
}
