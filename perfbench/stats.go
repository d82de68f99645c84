package main

import (
	"math"
	"slices"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure resting on fewer is one or two outliers.
const minBeyond = 10

// beyond returns how many of n samples lie strictly above the
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantile returns the highest of the standard tail quantiles, up
// to the p99 the latency limits are set on, that has at least minBeyond
// samples above it, or 0 when even the median has not.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.9, 0.5} {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// quantile returns the nearest-rank q-quantile of sorted values (NaN
// when empty). Failed operations enter as +Inf, so they count as
// missing any latency limit.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// sortedCopy returns vs sorted ascending, leaving vs untouched.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// mean returns the arithmetic mean (0 when empty).
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never
// reaches reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// step is one rung of the rate ladder.
type step struct {
	rate float64 // offered queries/s
	tail float64 // tail latency in ms (at the step's tailQuantile); +Inf if a request failed
	grew bool    // the backlog grew: the program fell behind the rate
}

// capacity returns the highest offered rate whose tail latency meets
// limitMS without a growing backlog, interpolated between ladder steps.
// The steps' tails are first fitted non-decreasing in rate (pool
// adjacent violators), so one step hit by a pause does not end the
// ladder's evidence; a step with a growing backlog or a failed request
// counts as twice the limit. A ladder that stays within the limit is
// censored at its top rate. The second result names any censoring.
func capacity(steps []step, limitMS float64) (float64, string) {
	if len(steps) == 0 {
		return 0, "no ladder"
	}
	tails := make([]float64, len(steps))
	for i, s := range steps {
		tails[i] = s.tail
		if s.grew || math.IsInf(s.tail, 1) || math.IsNaN(s.tail) {
			tails[i] = math.Max(2*limitMS, s.tail)
		}
		if math.IsInf(tails[i], 1) {
			tails[i] = 2 * limitMS
		}
	}
	fit := monotone(tails)
	f := slices.IndexFunc(fit, func(t float64) bool { return t > limitMS })
	switch f {
	case -1:
		return steps[len(steps)-1].rate, "censored: every step within the limit"
	case 0:
		return steps[0].rate * limitMS / fit[0], "below ladder: first step over the limit"
	}
	lo, hi := steps[f-1].rate, steps[f].rate
	return lo + (hi-lo)*(limitMS-fit[f-1])/(fit[f]-fit[f-1]), ""
}

// monotone returns the least-squares non-decreasing fit of ys (equal
// weights), by pooling adjacent violators.
func monotone(ys []float64) []float64 {
	type block struct {
		sum float64
		n   int
	}
	mean := func(b block) float64 { return b.sum / float64(b.n) }
	var bs []block
	for _, y := range ys {
		bs = append(bs, block{y, 1})
		for len(bs) > 1 && mean(bs[len(bs)-2]) > mean(bs[len(bs)-1]) {
			last := bs[len(bs)-1]
			bs = bs[:len(bs)-1]
			bs[len(bs)-1].sum += last.sum
			bs[len(bs)-1].n += last.n
		}
	}
	out := make([]float64, 0, len(ys))
	for _, b := range bs {
		for i := 0; i < b.n; i++ {
			out = append(out, mean(b))
		}
	}
	return out
}
