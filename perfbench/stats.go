package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks, the same rule as numpy's default
// and Python's statistics.quantiles(method="inclusive"). xs is sorted in
// place. It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return sortedQuantile(xs, q)
}

func sortedQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// tailQuantile is the highest of the candidate quantiles that leaves at
// least ten samples beyond it, so a reported tail always rests on more
// than a handful of observations. With fewer than 20 samples it falls
// back to the median.
func tailQuantile(n int, candidates ...float64) float64 {
	best := 0.5
	for _, q := range candidates {
		if float64(n)*(1-q) >= 10 && q > best {
			best = q
		}
	}
	return best
}

// saturationRate estimates the offered rate at which pass holds half
// the time, for a pass that is likelier the lower the rate. It is an
// up-down staircase: the rate is multiplied by grow after a pass and
// divided by it after a fail until the first reversal, then moves by
// step, so it settles into oscillating around the half-pass rate. The
// estimate is the mean of the rates probed from the second reversal on,
// once the coarse overshoot is walked back: every probe informs it, no
// single unlucky window decides it, and it is finer than the step.
// Without a second reversal it is the highest passing rate (0 if none
// passed).
func saturationRate(start, grow, step float64, probes int, pass func(rate float64) bool) float64 {
	rate, factor := start, grow
	var sum float64
	best, prev, reversals, n := 0.0, false, 0, 0
	for i := 0; i < probes; i++ {
		ok := pass(rate)
		if i > 0 && ok != prev {
			reversals++
			factor = step
		}
		if reversals >= 2 {
			sum += rate
			n++
		}
		if ok {
			best = math.Max(best, rate)
			rate *= factor
		} else {
			rate /= factor
		}
		prev = ok
	}
	if n == 0 {
		return best
	}
	return sum / float64(n)
}

// timeSetup runs fn reps times and returns the median of its wall
// times. Automatic collection is off while it runs and a forced one
// precedes each rep, so no rep pays for garbage an earlier one left or
// races the concurrent collector for the host's CPUs.
func timeSetup(reps int, fn func() error) (float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ts []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}
