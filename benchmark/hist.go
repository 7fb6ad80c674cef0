package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a fixed-size log-linear latency histogram: 2^subBits linear
// buckets per power of two, so a bucket is at most 1/128 (0.8 %) wide and
// recording never allocates. It stays small (18 KB) on purpose: a harness
// that kept raw samples would grow the live heap and so change how often
// the collector runs in the process being measured.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    int64
	max    int64
}

const (
	subBits     = 7
	maxValBits  = 41 // values clamp below 2^41 ns (36 minutes)
	histBuckets = (maxValBits - subBits + 1) << subBits
)

// bucketOf maps a value to its bucket; values below 2^subBits map to
// themselves.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= 1<<maxValBits {
		v = 1<<maxValBits - 1
	}
	if v < 1<<subBits {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - subBits
	return (shift+1)<<subBits | int(v>>shift)&(1<<subBits-1)
}

// bucketBounds returns the lowest value of bucket i and the bucket width.
func bucketBounds(i int) (low, width int64) {
	if i < 1<<subBits {
		return int64(i), 1
	}
	shift := i>>subBits - 1
	return (1<<subBits | int64(i&(1<<subBits-1))) << shift, 1 << shift
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the value below which the share q of the samples lies,
// interpolated linearly inside the bucket that holds that rank.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			low, width := bucketBounds(i)
			v := float64(low) + float64(width)*(rank-cum)/float64(c)
			return math.Min(v, float64(h.max))
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// quantileOf returns the q-quantile of a few values, interpolated linearly
// between the two it falls between. It does not reorder its argument.
func quantileOf(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the middle value, or the mean of the two middle values.
func median(vals []float64) float64 { return quantileOf(vals, 0.5) }
