package main

import (
	"math"
	"math/bits"
	"time"
)

// hist is a log-linear histogram of nanosecond durations: exact below 256 ns,
// then 128 linear sub-buckets per power of two (under 0.8% relative width).
// Percentiles interpolate inside the bucket, so two runs with slightly
// different distributions read different values instead of snapping to the
// same bucket edge. A hist is owned by one goroutine; merge after it stops.
//
// The stats package's collector histograms bucket whole microseconds, which
// is too coarse for the tens-of-microseconds transactions measured here.
type hist struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histBuckets covers durations up to 2^40 ns (about 18 minutes).
	histBuckets = (40-histSubBits)*histSub + 2*histSub
)

func histIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	if ns < 2*histSub {
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - histSubBits - 1
	idx := shift*histSub + int(ns>>uint(shift))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBounds returns the lower edge and width of bucket idx in nanoseconds.
func histBounds(idx int) (lo, width int64) {
	if idx < 2*histSub {
		return int64(idx), 1
	}
	shift := idx/histSub - 1
	return int64(idx-shift*histSub) << uint(shift), 1 << uint(shift)
}

func (h *hist) add(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
	h.sum += int64(d)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// meanUS returns the mean in microseconds (0 when empty).
func (h *hist) meanUS() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n) / 1e3
}

// quantileUS returns the q-quantile (0 < q < 1) in microseconds, linearly
// interpolated inside its bucket (0 when empty).
func (h *hist) quantileUS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := histBounds(i)
			frac := math.Max(0, (target-cum)/float64(c))
			return (float64(lo) + frac*float64(w)) / 1e3
		}
		cum += float64(c)
	}
	lo, w := histBounds(histBuckets - 1)
	return float64(lo+w) / 1e3
}

// midMeanUS returns the interquartile mean in microseconds: the mean of the
// observations ranked between the 25th and 75th percentile, with bucket
// midpoints standing for their observations (0 when empty). Unlike the
// median it does not jump when a mix puts a latency gap at the 50th
// percentile.
func (h *hist) midMeanUS() float64 {
	if h.n == 0 {
		return 0
	}
	lo, hi := 0.25*float64(h.n), 0.75*float64(h.n)
	var cum, sum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		from, to := max(cum, lo), min(cum+float64(c), hi)
		if to > from {
			b, w := histBounds(i)
			sum += (to - from) * (float64(b) + float64(w)/2)
		}
		cum += float64(c)
		if cum >= hi {
			break
		}
	}
	return sum / (hi - lo) / 1e3
}
