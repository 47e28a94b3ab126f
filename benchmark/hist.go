package main

import (
	"math"
	"math/bits"
)

// hist is the benchmark's own host-side latency histogram: exact below
// histExact cycles, then histSub sub-buckets per power of two, so a
// reported quantile is within 1/64 of the true sample. The allocator's
// built-in log2 buckets (core.LatencyHist) are a factor of two wide — a
// 40 % change is invisible inside one of them — which is why the
// benchmark measures from outside with its own.
type hist struct {
	n      uint64
	sum    uint64
	max    int64
	counts [histBuckets]uint64
}

const (
	histExactBits = 12
	histExact     = 1 << histExactBits // values below this are exact
	histSubBits   = 6
	histSub       = 1 << histSubBits // sub-buckets per octave above histExact
	histMaxBits   = 44               // values at or above 2^44 clamp to the top bucket
	histBuckets   = histExact + (histMaxBits-histExactBits)*histSub
)

// histIndex maps a cycle count to its bucket.
func histIndex(v int64) int {
	if v < histExact {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // v in [2^e, 2^(e+1))
	if e >= histMaxBits {
		return histBuckets - 1
	}
	sub := int(uint64(v)>>(uint(e)-histSubBits)) & (histSub - 1)
	return histExact + (e-histExactBits)*histSub + sub
}

// histUpper returns the largest value that lands in bucket i — the value
// a quantile falling in that bucket reports.
func histUpper(i int) int64 {
	if i < histExact {
		return int64(i)
	}
	i -= histExact
	e := uint(i/histSub + histExactBits)
	sub := int64(i % histSub)
	width := int64(1) << (e - histSubBits)
	return int64(1)<<e + (sub+1)*width - 1
}

func (h *hist) add(v int64) {
	h.n++
	if v > 0 {
		h.sum += uint64(v)
	}
	if v > h.max {
		h.max = v
	}
	h.counts[histIndex(v)]++
}

// quantile returns the nearest-rank value at q in (0, 1]; 0 when empty.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if u := histUpper(i); u < h.max {
				return u
			}
			return h.max
		}
	}
	return h.max
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
