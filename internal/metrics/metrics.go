// Package metrics provides the measurement primitives the daemon
// exports: monotonic counters, gauges and latency histograms with
// tail-percentile queries. Everything is safe for concurrent use unless
// noted otherwise.
package metrics

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing 64-bit counter. All methods are
// no-ops on a nil receiver, so instrumented code can hold nil handles
// (from a nil Registry) and stay allocation-free on the hot path.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Negative n is ignored: counters are
// monotonic by contract.
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a 64-bit value that may go up and down (e.g. live bytes).
// Methods are no-ops on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Add adjusts the gauge by n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram layout: bucket 0 holds [0, 2^histMinExp); above it each of
// histOctaves powers of two is cut into histSub equal buckets, and the
// last bucket also takes everything larger. A bucket stands for its
// midpoint, so means and quantiles are within 1/(2*histSub) = 1.6 % of
// the exact ones (stated bound: 2 %), or 2^histMinExp absolute inside
// bucket 0. In microseconds the range is 31 ns to 67 s.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histMinExp  = -5
	histOctaves = 31
	histBuckets = 1 + histOctaves*histSub // 993 counters, 7.8 KB
)

// histBias is the exponent and top histSubBits mantissa bits of the
// lower edge of bucket 1, as they sit at the top of its bit pattern.
const histBias = (1023+histMinExp)<<histSubBits - 1

// bucketOf maps v >= 0 to its bucket: the float's exponent and top
// histSubBits mantissa bits, read straight from its bit pattern.
func bucketOf(v float64) int {
	return max(0, min(int(math.Float64bits(v)>>(52-histSubBits))-histBias, histBuckets-1))
}

// bucketLower is the inclusive lower edge of bucket i, bucketOf's
// inverse; the upper edge (exclusive) is bucketLower(i+1).
func bucketLower(i int) float64 {
	if i <= 0 {
		return 0
	}
	return math.Float64frombits(uint64(i+histBias) << (52 - histSubBits))
}

// bucketValue is the value every observation in bucket i is taken to
// have: the midpoint, or the lower edge for the two open-ended buckets.
func bucketValue(i int) float64 {
	if i <= 0 || i >= histBuckets-1 {
		return bucketLower(i)
	}
	return (bucketLower(i) + bucketLower(i+1)) / 2
}

// Histogram counts observations in a fixed log-linear array of atomic
// buckets. Observe is one atomic add to one bucket: no lock, no
// allocation, a footprint that never grows, and no cell that every
// caller writes (a shared sum or count costs two hammering goroutines
// 100-200 ns a call on two cores, three times the mutex this replaced).
// So count, mean, quantiles and the Prometheus buckets all derive from
// the one array; only Min and Max are kept beside it, exactly. NaN is
// dropped, negative values count as 0 and values past the last bucket
// (+Inf included) saturate into it. All methods are no-ops (returning
// zeros) on a nil receiver.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	// float64 bit patterns; observations are >= 0, so the patterns
	// order like the values and min/max are integer compares.
	min atomic.Uint64 // +Inf until the first Observe
	max atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.Float64bits(math.Inf(1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || v != v {
		return
	}
	if v <= 0 {
		v = 0 // also turns -0 into +0, whose bit pattern is 0
	} else if v > math.MaxFloat64 {
		v = bucketLower(histBuckets) // a Max of +Inf has no JSON form
	}
	// Extremes first, the bucket last: a reader that loads the buckets
	// and then the extremes finds every counted observation inside them.
	b := math.Float64bits(v)
	for old := h.max.Load(); b > old && !h.max.CompareAndSwap(old, b); old = h.max.Load() {
	}
	for old := h.min.Load(); b < old && !h.min.CompareAndSwap(old, b); old = h.min.Load() {
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Bucket is one non-empty histogram bucket: its index in the fixed
// layout and how many observations it holds.
type Bucket struct {
	Index int   `json:"i"`
	Count int64 `json:"n"`
}

// Snapshot bundles the latency statistics the paper reports in Fig. 8
// with the non-empty buckets they were computed from, so that two
// snapshots of one histogram subtract into an interval (Sub).
type Snapshot struct {
	Count   int64    `json:"count"`
	Mean    float64  `json:"mean"`
	Min     float64  `json:"min"`
	P50     float64  `json:"p50"`
	P99     float64  `json:"p99"`
	P999    float64  `json:"p999"`
	Max     float64  `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// quantile returns the value of the bucket holding the observation of
// rank floor(q*(Count-1)), clamped to [Min, Max]; Min and Max themselves
// answer q <= 0 and q >= 1.
func (s Snapshot) quantile(q float64) float64 {
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := int64(q * float64(s.Count-1))
	for _, b := range s.Buckets {
		if rank -= b.Count; rank < 0 {
			return min(max(bucketValue(b.Index), s.Min), s.Max)
		}
	}
	return s.Max
}

// newSnapshot summarizes bs, whose observations lie in [lo, hi]. Every
// statistic comes from bs and is clamped into [lo, hi], so a snapshot
// is consistent whatever raced with it.
func newSnapshot(bs []Bucket, lo, hi float64) Snapshot {
	s := Snapshot{Min: lo, Max: hi, Buckets: bs}
	var sum float64
	for _, b := range bs {
		s.Count += b.Count
		sum += float64(b.Count) * bucketValue(b.Index)
	}
	if s.Count == 0 {
		return Snapshot{}
	}
	s.Mean = min(max(sum/float64(s.Count), lo), hi)
	s.P50, s.P99, s.P999 = s.quantile(0.50), s.quantile(0.99), s.quantile(0.999)
	return s
}

// view is Snapshot with the buckets left in buf: one scan of the array
// and no allocation, for callers that keep only a number.
func (h *Histogram) view(buf *[histBuckets]Bucket) Snapshot {
	if h == nil {
		return Snapshot{}
	}
	bs := buf[:0]
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c > 0 {
			bs = append(bs, Bucket{i, c})
		}
	}
	lo := math.Float64frombits(h.min.Load())
	return newSnapshot(bs, lo, math.Float64frombits(h.max.Load()))
}

// Snapshot returns the summary of all observations so far.
func (h *Histogram) Snapshot() Snapshot {
	var buf [histBuckets]Bucket
	s := h.view(&buf)
	s.Buckets = append([]Bucket(nil), s.Buckets...)
	return s
}

// Mean returns the arithmetic mean of all observations, or 0 if empty.
func (h *Histogram) Mean() float64 {
	var buf [histBuckets]Bucket
	return h.view(&buf).Mean
}

// Sub returns the summary of the observations made after prev and up
// to s, both taken from the same histogram: bucket counts subtract, so
// the statistics are those of the interval alone. The interval's Min
// and Max are known only to the edge of its outermost buckets.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	var diff []Bucket
	rest := prev.Buckets
	for _, b := range s.Buckets {
		for len(rest) > 0 && rest[0].Index < b.Index {
			rest = rest[1:]
		}
		if len(rest) > 0 && rest[0].Index == b.Index {
			b.Count -= rest[0].Count
		}
		if b.Count > 0 {
			diff = append(diff, b)
		}
	}
	if len(diff) == 0 {
		return Snapshot{}
	}
	lo := max(s.Min, bucketLower(diff[0].Index))
	hi := s.Max
	if last := diff[len(diff)-1].Index; last < histBuckets-1 {
		hi = min(hi, bucketLower(last+1))
	}
	return newSnapshot(diff, lo, hi)
}
