package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics. xs is sorted in place. NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a rate over no events).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// foldRound folds one round's selection into a decision hash: FNV-1a over
// the round number's eight bytes and each selected stream id's four bytes,
// least significant first, in selection order. It is the fold the cluster
// coordinator reports as Report.DecisionHash, so a cluster run and a
// single gate making the same decisions print the same hash.
func foldRound(h uint64, round int64, sel []int) uint64 {
	for s := uint(0); s < 64; s += 8 {
		h = (h ^ (uint64(round) >> s & 0xFF)) * fnvPrime
	}
	for _, i := range sel {
		v := uint64(uint32(i))
		for s := uint(0); s < 32; s += 8 {
			h = (h ^ (v >> s & 0xFF)) * fnvPrime
		}
	}
	return h
}
