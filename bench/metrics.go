package main

import (
	"math"
	"sort"
	"time"
)

// The harness arithmetic: every number the benchmark reports is built
// from the functions in this file, so that each can be unit-tested on
// its own (see metrics_test.go).

// tailSamples is the number of samples that must lie beyond a reported
// percentile; with fewer the percentile is lowered until they do.
const tailSamples = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted. It reports 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	return sorted[min(max(rank, 1), n)-1]
}

// percentileFloor is percentile with a sample-count floor: when fewer
// than tailSamples samples lie beyond the p-th percentile it reports
// the highest percentile that does have them (never below the median),
// and returns the percentile it actually used.
func percentileFloor(sorted []float64, p float64) (value, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, p
	}
	if beyond := float64(n) * (100 - p) / 100; beyond < tailSamples {
		p = math.Max(50, 100*(1-tailSamples/float64(n)))
	}
	return percentile(sorted, p), p
}

// median sorts xs in place and returns its median (mean of the two
// middle values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// blocksPerS is closed-loop throughput that does not charge a failed
// block's stall to the committed ones: clients × committed blocks ÷ the
// client time spent inside committed blocks. With nothing failing and
// no think time it equals plain wall throughput.
func blocksPerS(clients, committed int, busy time.Duration) float64 {
	if busy <= 0 {
		return 0
	}
	return float64(clients) * float64(committed) / busy.Seconds()
}

// ratio is a/b with 0 for an empty denominator — every per-block rate
// from a counter delta goes through it.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is a half-open interval on the benchmark's monotonic clock
// (nanoseconds since process start).
type span struct{ start, end int64 }

func (s span) dur() int64 { return max(s.end-s.start, 0) }

// selfTime is a span's duration minus the part of it that the union of
// its children covers. Children may overlap each other (alternative
// bodies run in parallel) and may stick out of the parent (a job's
// cleanup ends after the client has its reply); both are handled by
// clipping to the parent and merging. children is reordered.
func selfTime(parent span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].start < children[j].start })
	covered, edge := int64(0), parent.start
	for _, c := range children {
		lo, hi := max(c.start, edge), min(c.end, parent.end)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return parent.dur() - covered
}

// splitmix64 is the benchmark's input generator: one 64-bit state, no
// shared source, so a client's n-th block depends only on
// (seed, client, n).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// blockRand derives the input word of client c's n-th block.
func blockRand(seed int64, c int, n int64) uint64 {
	return splitmix64(splitmix64(uint64(seed))<<1 ^ uint64(c+1)<<48 ^ uint64(n))
}
