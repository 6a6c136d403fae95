// Package bench is the repo's benchmark: four workloads driven through the
// public functions of repro/internal/*, end-to-end metrics taken as medians
// over many identical segments, and a traced run that replays the workload's
// inputs through a ladder of cumulative layers. See ../README.md for why each
// workload and estimator exists.
package bench

import (
	"math"
	"sort"
	"time"
)

// segment is one barrier-separated slice of identical work.
type segment struct {
	tally
	wall       time.Duration
	cpu        time.Duration // getrusage user+sys over the segment, whole process
	mallocs    uint64        // MemStats.Mallocs delta over the segment
	allocBytes uint64        // MemStats.TotalAlloc delta over the segment
	steal      int64         // /proc/stat steal ticks over the segment, all vCPUs
}

// rate is the segment's completed operations per second.
func (s segment) rate() float64 {
	if s.wall <= 0 {
		return 0
	}
	return float64(s.attempted-s.failed) / s.wall.Seconds()
}

// quietest returns the index of the segment with the highest op rate, -1 for
// none. It is printed as a diagnostic only: on the reference host the fast mode
// is the rare one, so best-of-N repeats worse than the median of the segments
// (README.md, "The estimator").
func quietest(segs []segment) int {
	best := -1
	for i, s := range segs {
		if best < 0 || s.rate() > segs[best].rate() {
			best = i
		}
	}
	return best
}

// percentile returns the nearest-rank p-quantile (0 <= p <= 1) of sorted and
// the number of samples strictly beyond it, so a caller can tell whether a
// tail percentile has enough samples behind it to mean anything.
func percentile(sorted []int64, p float64) (v int64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i], len(sorted) - 1 - i
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), which is
// the estimator the acceptance rule for this benchmark is written in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(j int) float64 {
		pos := float64(j) * float64(m+1) / 4 // 1-based rank
		lo := int(pos)
		if lo < 1 {
			lo = 1
		}
		if lo > m-1 {
			lo = m - 1
		}
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tally accounts operations attempted, failed (errored, refused, or answered
// differently from the oracle) and correctly labelled. Error share and
// accuracy are both shares of attempted: a failed operation is counted as
// attempted and can never be counted as correct.
type tally struct {
	attempted, failed, correct int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.correct += o.correct
}

func (t tally) errorShare() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

func (t tally) accuracy() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.correct) / float64(t.attempted)
}
