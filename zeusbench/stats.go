package main

import (
	"math"
	"math/bits"
	"slices"
	"time"
)

// hist is a log-linear latency histogram in nanoseconds: one bucket per
// nanosecond below histSub ns, and above that histSub buckets per power of
// two, so a bucket spans at most 1/histSub (0.1%) of its lower edge. Its
// size is fixed, so the benchmark's own memory does not grow with the
// number of operations it times. Durations of 2^histMaxExp ns (~69 s) or
// more saturate, which no workload approaches.
type hist struct {
	counts []uint64 // histBuckets long once anything was added
	n      uint64
	sumNS  float64
}

const (
	histSubBits = 10
	histSub     = 1 << histSubBits
	histMaxExp  = 36
	histBuckets = histSub + (histMaxExp-histSubBits)*histSub
)

// histIndex returns the bucket of v ns.
func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	v = min(v, 1<<histMaxExp-1)
	shift := bits.Len64(v) - 1 - histSubBits
	return shift*histSub + int(v>>shift)
}

// histLower returns the smallest value, in ns, that falls in bucket i.
func histLower(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	shift := i/histSub - 1
	return uint64(i-shift*histSub) << shift
}

func (h *hist) add(d time.Duration) {
	v := uint64(max(d, 0))
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	h.counts[histIndex(v)]++
	h.n++
	h.sumNS += float64(v)
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sumNS += o.sumNS
}

// percentile returns the q-quantile (0 < q <= 1) in microseconds by the
// nearest-rank rule: the lower edge of the bucket holding the smallest
// sample with at least q of the samples at or below it. That is the exact
// sample below histSub ns and at most 0.1% under it above. It returns 0
// for an empty histogram.
func (h *hist) percentile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	rank = max(1, min(rank, h.n))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return float64(histLower(i)) / 1e3
		}
	}
	panic("unreachable: counts sum to n")
}

// summary is the distribution of one latency population.
type summary struct {
	n              uint64
	p50, p99, p999 float64 // microseconds
	mean           float64 // microseconds, exact
}

func summarize(h *hist) summary {
	out := summary{n: h.n, p50: h.percentile(0.50), p99: h.percentile(0.99), p999: h.percentile(0.999)}
	if h.n > 0 {
		out.mean = h.sumNS / float64(h.n) / 1e3
	}
	return out
}

// windows counts replies per tpsWindow since a phase began.
type windows struct {
	base   time.Time
	counts []uint64
}

// tpsWindow is the width of one throughput window; tps is the median of
// the phase's complete windows.
const tpsWindow = time.Second

func (w *windows) add(now time.Time) {
	if w.base.IsZero() {
		return
	}
	i := int(now.Sub(w.base) / tpsWindow)
	if i < 0 {
		return
	}
	for len(w.counts) <= i {
		w.counts = append(w.counts, 0)
	}
	w.counts[i]++
}

func (w *windows) merge(o windows) {
	for len(w.counts) < len(o.counts) {
		w.counts = append(w.counts, 0)
	}
	for i, c := range o.counts {
		w.counts[i] += c
	}
}

// rates returns the replies per second of the first n windows.
func (w windows) rates(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if i < len(w.counts) {
			out[i] = float64(w.counts[i]) / tpsWindow.Seconds()
		}
	}
	return out
}

// quartiles returns the three cut points of values into four groups by
// the "exclusive" method of Python's statistics.quantiles(values, n=4) —
// the rule the benchmark's bounds are checked with. It needs two values.
func quartiles(values []float64) [3]float64 {
	data := slices.Clone(values)
	slices.Sort(data)
	ld := len(data)
	var out [3]float64
	if ld < 2 {
		if ld == 1 {
			out = [3]float64{data[0], data[0], data[0]}
		}
		return out
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out
}

// spread is the interquartile range of values as a share of their median.
func spread(values []float64) (median, iqrShare float64) {
	q := quartiles(values)
	median = q[1]
	if median == 0 {
		return 0, 0
	}
	return median, (q[2] - q[0]) / math.Abs(median)
}
