// Package analytic provides closed-form queueing results used as the
// validation reference for the simulator. The paper validates µqSim against
// real-server measurements; without that testbed, this repository validates
// against exact theory in the regimes where theory exists (M/M/1, M/M/k,
// M/D/1), and against the Dean & Barroso tail-at-scale probability model
// for fan-out scenarios.
package analytic

import (
	"math"
)

// MM1MeanSojourn is the mean time in system of an M/M/1 queue with arrival
// rate lambda and service rate mu (both per second): 1/(µ−λ).
// Returns +Inf at or beyond saturation.
func MM1MeanSojourn(lambda, mu float64) float64 {
	if lambda >= mu {
		return math.Inf(1)
	}
	return 1 / (mu - lambda)
}

// MM1SojournQuantile is the q-quantile of M/M/1 time in system. Sojourn
// time is exponential with mean 1/(µ−λ), so the quantile is −ln(1−q) times
// the mean.
func MM1SojournQuantile(lambda, mu, q float64) float64 {
	if lambda >= mu {
		return math.Inf(1)
	}
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return math.Inf(1)
	}
	return -math.Log(1-q) / (mu - lambda)
}

// Saturation sentinel. Every mean-value helper in this package returns
// SaturatedWait (+Inf) when the queueing system has no stationary regime
// (rho >= 1) or the inputs are degenerate (nonpositive service rate,
// negative arrival rate). Callers that must branch — the hybrid fluid
// tier switches from equilibrium injection to bottleneck shedding —
// test the result with IsSaturated instead of comparing raw floats.
var SaturatedWait = math.Inf(1)

// IsSaturated reports whether a value returned by the queueing helpers is
// the saturated sentinel: the system has no finite stationary answer.
func IsSaturated(v float64) bool { return math.IsInf(v, 1) }

// MMkSaturated reports whether an M/M/k system with arrival rate lambda
// and per-server service rate mu has no stationary regime (lambda >= k·µ,
// or degenerate inputs).
func MMkSaturated(lambda, mu float64, k int) bool {
	return k <= 0 || mu <= 0 || lambda < 0 || lambda >= float64(k)*mu
}

// MG1Saturated reports whether an M/G/1 system with arrival rate lambda
// and mean service time es has no stationary regime (λ·E[S] >= 1, or
// degenerate inputs).
func MG1Saturated(lambda, es float64) bool {
	return es <= 0 || lambda < 0 || lambda*es >= 1
}

// ErlangC is the probability an arrival waits in an M/M/k queue with k
// servers and offered load a = λ/µ (in Erlangs). At or beyond saturation
// (a >= k, or k <= 0) every arrival waits and ErlangC returns exactly 1 —
// the probability-space face of the saturated sentinel; pair it with
// MMkSaturated when the caller must distinguish "busy but stable" from
// "no stationary regime". Negative offered load returns 0.
func ErlangC(k int, a float64) float64 {
	if a <= 0 {
		return 0
	}
	if k <= 0 {
		return 1
	}
	if a >= float64(k) {
		return 1
	}
	// Compute iteratively to avoid factorial overflow:
	// B(0)=1; B(j)=a·B(j−1)/(j+a·B(j−1)) is Erlang-B; then
	// C = k·B /(k − a(1−B)).
	// Once b underflows to exactly 0 it stays 0, so the rest of the
	// recurrence is skipped; once it is subnormal, erlangBTail finishes it.
	b := 1.0
	for j := 1; j <= k && b != 0; j++ {
		ab := a * b
		if b < 0x1p-1022 && ab < 0x1p-1022 && float64(j) > a {
			b = erlangBTail(a, b, j, k)
			break
		}
		b = ab / (float64(j) + ab)
	}
	return float64(k) * b / (float64(k) - a*(1-b))
}

// erlangBTail runs the Erlang-B recurrence from step j to k in integers,
// bit for bit as the float loop would, once b and a·b are subnormal and
// j > a. Then b = m·2^-1074 with m < 2^52 and a step is subnormalStep.
// Since j > a, m never grows, so every later step stays in that range. x86
// takes a microcode assist on each subnormal operand, which made this tail
// most of a call at the hybrid tier's operating points.
func erlangBTail(a, b float64, j, k int) float64 {
	m := math.Float64bits(b) // b is subnormal: its bits are m
	for ; j <= k && m != 0; j++ {
		m = subnormalStep(a, m, uint64(j))
	}
	return math.Float64frombits(m)
}

// subnormalStep is the step b ← a·b/(j + a·b) on b = m·2^-1074 with a·b
// subnormal: a·b rounds to rne(a·m)·2^-1074, j plus that rounds to j, and
// the quotient rounds to rne(rne(a·m)/j)·2^-1074, rne rounding to the
// nearest integer, ties to even.
func subnormalStep(a float64, m, j uint64) uint64 {
	n := rneMul(a, m)
	q, r := n/j, n%j
	if 2*r > j || 2*r == j && q&1 == 1 {
		q++
	}
	return q
}

// rneMul is a·m rounded to the nearest integer, ties to even, for a·m
// below 2^52. The float product p is off the exact one by the residual
// FMA returns, under half an ulp of p, and ulp(p) ≤ 1/2 is a divisor of
// 1/2: so the product's fraction is on the same side of 1/2 as p's unless
// p's is exactly 1/2, where the residual's sign decides.
func rneMul(a float64, m uint64) uint64 {
	x := float64(m)
	p := a * x
	f := math.Floor(p)
	n := uint64(f)
	if c := p - f; c > 0.5 {
		n++
	} else if c == 0.5 {
		if r := math.FMA(a, x, -p); r > 0 || r == 0 && n&1 == 1 {
			n++
		}
	}
	return n
}

// MMkMeanWait is the mean queueing delay (excluding service) of M/M/k:
// C(k,a) / (kµ − λ). Saturated or degenerate inputs return the
// SaturatedWait sentinel (test with IsSaturated).
func MMkMeanWait(lambda, mu float64, k int) float64 { return MMkAt(lambda, mu, k).MeanWaitS }

// MMkWaitDist describes the full M/M/k waiting-time distribution at one
// operating point: an arrival waits with probability pWait (Erlang-C)
// and, conditioned on waiting, the wait is exponential with rate
// condRate = kµ − λ per second. This is what a sampled-foreground tier
// needs to draw per-request queue waits consistent with a fluid
// background load. Saturated or degenerate inputs return (1, 0): every
// arrival waits, unboundedly — the distribution-space face of the
// saturated sentinel (condRate == 0 is the branch condition).
func MMkWaitDist(lambda, mu float64, k int) (pWait, condRate float64) {
	p := MMkAt(lambda, mu, k)
	return p.PWait, p.CondRate
}

// MMkTimeoutProb is the probability an M/M/k queue wait exceeds timeoutS
// seconds: P(W > t) = C(k, a)·e^{−(kµ−λ)t}, the tail of the Erlang-C
// mixed distribution (an atom at zero plus an Exp(kµ−λ) excess). The
// timeout is compared against queueing delay only — an attempt that
// reaches a server is assumed to finish — which makes it the natural
// per-attempt failure probability for a mean-field retry model. Saturated
// or degenerate inputs return 1: every attempt waits forever and times
// out. A non-positive timeout with retries configured would mean every
// attempt fails instantly; it also returns 1.
func MMkTimeoutProb(lambda, mu float64, k int, timeoutS float64) float64 {
	return MMkAt(lambda, mu, k).TimeoutProb(timeoutS)
}

// RetryAttempts is the expected number of attempts of an RPC edge that
// retries up to `retries` times with per-attempt failure probability p:
// E[attempts] = Σ_{j=0..retries} p^j = (1 − p^{retries+1}) / (1 − p).
// This is the mean-field amplification factor retry storms apply to a
// service's offered rate. p is clamped into [0, 1]; p == 1 returns the
// full retries+1 budget.
func RetryAttempts(p float64, retries int) float64 {
	if retries <= 0 || p <= 0 || math.IsNaN(p) {
		return 1
	}
	if p >= 1 {
		return float64(retries + 1)
	}
	return (1 - math.Pow(p, float64(retries+1))) / (1 - p)
}

// MMkPoint is the stationary M/M/k state at one (λ, µ, k) operating
// point — the per-epoch computation of a piecewise-constant fluid
// trajectory, where the arrival envelope and the server count are frozen
// within an epoch and re-evaluated at its boundary. Saturated epochs
// report Saturated true with the mean-value fields pinned to the
// sentinel; Rho is always the raw λ/(kµ) (it exceeds 1 past saturation,
// which is exactly what a bottleneck-shedding law wants to see).
type MMkPoint struct {
	Rho       float64 // offered utilization λ/(kµ), uncapped
	PWait     float64 // P(wait > 0): Erlang-C, 1 when saturated
	CondRate  float64 // kµ − λ, rate of the wait given one occurs; 0 when saturated
	MeanWaitS float64 // mean queue wait in seconds; sentinel when saturated
	QueueLen  float64 // mean waiting jobs Lq; sentinel when saturated
	Saturated bool
}

// TimeoutProb is the point's P(W > timeoutS); see MMkTimeoutProb.
func (p MMkPoint) TimeoutProb(timeoutS float64) float64 {
	if timeoutS <= 0 {
		return 1
	}
	if p.CondRate <= 0 {
		return p.PWait // saturated: (1, 0) — the whole mass times out
	}
	return p.PWait * math.Exp(-p.CondRate*timeoutS)
}

// MMk is an M/M/k kernel that memoizes Erlang-C recurrences for one run on
// their exact inputs (k, bits of a = λ/µ), so it answers bit for bit; a key
// whose probe window is full evicts its home slot. A nil *MMk remembers nothing.
type MMk struct {
	Recurrences int // O(k) recurrences At actually ran
	memo        [1 << mmkBits]struct {
		k    int // 0: empty, since k <= 0 never recurs
		a, c float64
	}
}

const mmkBits, mmkProbe = 8, 8 // 256 slots; a key searches 8 from its home

// MMkAt computes the equilibrium point without a memo; see MMkPoint.
func MMkAt(lambda, mu float64, k int) MMkPoint { return (*MMk)(nil).At(lambda, mu, k) }

// At computes the equilibrium point; see MMkPoint. Every field derives
// from one Erlang-C probability, which the memo may already hold.
func (m *MMk) At(lambda, mu float64, k int) MMkPoint {
	p := MMkPoint{Saturated: MMkSaturated(lambda, mu, k)}
	if mu > 0 && k > 0 {
		p.Rho = lambda / (float64(k) * mu)
	} else if lambda > 0 {
		p.Rho = math.Inf(1)
	}
	if p.Saturated {
		p.PWait = 1
		p.MeanWaitS = SaturatedWait
		p.QueueLen = SaturatedWait
		return p
	}
	p.PWait = m.erlangC(k, lambda/mu)
	p.CondRate = float64(k)*mu - lambda
	p.MeanWaitS = p.PWait / p.CondRate
	p.QueueLen = lambda * p.MeanWaitS
	return p
}

// erlangC is ErlangC, answered from the memo whenever it would recur.
func (m *MMk) erlangC(k int, a float64) float64 {
	if m == nil || a <= 0 || k <= 0 || a >= float64(k) {
		return ErlangC(k, a)
	}
	bits := math.Float64bits(a)
	home := int((bits ^ uint64(k)) * 0x9e3779b97f4a7c15 >> (64 - mmkBits))
	e := &m.memo[home]
	for i := 0; i < mmkProbe; i++ {
		if s := &m.memo[(home+i)%len(m.memo)]; s.k == k && math.Float64bits(s.a) == bits {
			return s.c
		} else if s.k == 0 {
			e = s
			break
		}
	}
	m.Recurrences++
	e.k, e.a, e.c = k, a, ErlangC(k, a)
	return e.c
}

// MMkMeanSojourn is the mean time in system of M/M/k.
func MMkMeanSojourn(lambda, mu float64, k int) float64 {
	if p := MMkAt(lambda, mu, k); !p.Saturated {
		return p.MeanWaitS + 1/mu
	}
	return SaturatedWait
}

// MD1MeanWait is the mean queueing delay of M/D/1 (deterministic service
// time d): ρ·d / (2(1−ρ)) — the Pollaczek–Khinchine formula with zero
// service variance.
func MD1MeanWait(lambda, d float64) float64 {
	rho := lambda * d
	if rho >= 1 {
		return math.Inf(1)
	}
	return rho * d / (2 * (1 - rho))
}

// MD1MeanSojourn is the mean time in system of M/D/1.
func MD1MeanSojourn(lambda, d float64) float64 {
	w := MD1MeanWait(lambda, d)
	if math.IsInf(w, 1) {
		return w
	}
	return w + d
}

// MG1MeanWait is the Pollaczek–Khinchine mean queueing delay of M/G/1 with
// service mean es and second moment es2: λ·E[S²] / (2(1−ρ)). Saturated or
// degenerate inputs return the SaturatedWait sentinel (test with
// IsSaturated).
func MG1MeanWait(lambda, es, es2 float64) float64 {
	if MG1Saturated(lambda, es) {
		return SaturatedWait
	}
	return lambda * es2 / (2 * (1 - lambda*es))
}

// MaxOfExponentialsMean is E[max of n iid Exp(mean)] = mean·H(n), the
// harmonic number — the fork-join fan-in latency at zero load.
func MaxOfExponentialsMean(n int, mean float64) float64 {
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return mean * h
}

// MaxOfExponentialsQuantile is the q-quantile of the max of n iid
// exponentials with the given mean: −mean·ln(1 − q^{1/n}).
func MaxOfExponentialsQuantile(n int, mean, q float64) float64 {
	if n <= 0 || q <= 0 {
		return 0
	}
	if q >= 1 {
		return math.Inf(1)
	}
	return -mean * math.Log(1-math.Pow(q, 1/float64(n)))
}

// TailAtScaleSlowProb is the Dean & Barroso back-of-envelope: with a
// fraction p of servers slow, the probability that a request fanning out to
// n servers touches at least one slow server is 1 − (1−p)^n.
func TailAtScaleSlowProb(p float64, n int) float64 {
	if p <= 0 || n <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	return 1 - math.Pow(1-p, float64(n))
}

// FanoutQuantileOfMax computes the q-quantile of the max of n iid latency
// draws with CDF F, by numerically inverting F(x)^n = q over [lo, hi] with
// bisection. Useful for mixed fast/slow leaf populations.
func FanoutQuantileOfMax(n int, q, lo, hi float64, cdf func(x float64) float64) float64 {
	if n <= 0 || q <= 0 {
		return lo
	}
	target := math.Pow(q, 1/float64(n))
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// MixtureExpCDF is the CDF of a two-population exponential mixture: with
// probability pSlow the mean is slowMean, otherwise fastMean — the
// tail-at-scale leaf latency model (a 10×-slow machine serves a request
// with 10× the mean).
func MixtureExpCDF(pSlow, fastMean, slowMean float64) func(x float64) float64 {
	return func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return (1-pSlow)*(1-math.Exp(-x/fastMean)) + pSlow*(1-math.Exp(-x/slowMean))
	}
}
