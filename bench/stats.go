package main

import (
	"math"
	"sort"
	"time"
)

// latSummary condenses the pooled latency samples of one measured phase.
type latSummary struct {
	n                             int
	p50, p75, p95, p99, max, mean float64 // microseconds
	within                        float64 // share of the samples at or under latLimit
}

// percentile returns the q-quantile of ascending samples by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func summarize(samples []time.Duration) latSummary {
	if len(samples) == 0 {
		return latSummary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	late := sort.Search(len(samples), func(i int) bool { return samples[i] > latLimit })
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return latSummary{
		n:    len(samples),
		p50:  us(percentile(samples, 0.50)),
		p75:  us(percentile(samples, 0.75)),
		p95:  us(percentile(samples, 0.95)),
		p99:  us(percentile(samples, 0.99)),
		max:  us(samples[len(samples)-1]),
		mean: us(sum) / float64(len(samples)),

		within: float64(late) / float64(len(samples)),
	}
}

// pacer is an open-loop schedule: request i is due at start + i/rate,
// whatever happened to the requests before it.
type pacer struct {
	start time.Time
	rate  float64 // per second
}

func (p pacer) due(i int) time.Time {
	return p.start.Add(time.Duration(float64(i) / p.rate * float64(time.Second)))
}

// dueCount returns how many requests are due at or before now.
func (p pacer) dueCount(now time.Time) int {
	if now.Before(p.start) {
		return 0
	}
	return int(now.Sub(p.start).Seconds()*p.rate) + 1
}

// median of a small slice; sorts in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
