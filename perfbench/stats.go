package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is a handful of outliers, not a
// distribution.
const minBeyond = 10

// minSamples is the sample count at which p90 first qualifies.
const minSamples = 100

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs, and false when fewer than minBeyond samples lie above it. The
// median (p = 50) needs only one sample.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && len(s)-rank < minBeyond {
		return 0, false
	}
	return s[rank-1], true
}

// median is the 50th percentile of xs (0 for no samples).
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mix derives an independent 64-bit stream value from a seed and a
// path of indices (splitmix64 finalizer), so every cell, repeat and
// job draws its own reproducible seed from the one --seed.
func mix(seed uint64, path ...uint64) uint64 {
	z := seed
	for _, p := range path {
		z += 0x9e3779b97f4a7c15 ^ p*0xbf58476d1ce4e5b9
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}
