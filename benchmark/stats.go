package main

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to be more than a description of a few outliers.
const minBeyond = 10

// percentileSupported reports whether n samples leave at least minBeyond
// of them beyond percentile p (0 < p < 1).
func percentileSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= minBeyond
}

// percentile is the p-quantile of sorted samples (linear interpolation,
// internal/stats's rule).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return stats.Quantile(sorted, p)
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailWindows is how many consecutive windows a phase's samples are cut
// into for the tail percentile: the reported tail is the median of the
// windows' percentiles, which is far steadier run to run than one
// percentile over everything (a single stall moves one window, not the
// result), while each window still has minBeyond samples beyond it.
const tailWindows = 10

// tailPercentile reports percentile p of samples (in arrival order) as
// the median over up to tailWindows consecutive windows, using as many
// windows as keep minBeyond samples beyond p in each. It returns an
// error when even one window over all samples cannot support p.
func tailPercentile(samples []float64, p float64) (float64, int, error) {
	n := len(samples)
	if !percentileSupported(n, p) {
		return 0, 0, fmt.Errorf("%d samples leave fewer than %d beyond p%g", n, minBeyond, p*100)
	}
	w := tailWindows
	for w > 1 && !percentileSupported(n/w, p) {
		w--
	}
	per := make([]float64, 0, w)
	for i := 0; i < w; i++ {
		lo, hi := i*n/w, (i+1)*n/w
		per = append(per, percentile(sortedCopy(samples[lo:hi]), p))
	}
	return median(per), w, nil
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method) does — the driver computes spreads with it, so the self-check
// must too.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}
