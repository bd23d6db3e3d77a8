package experiments

import (
	"math"
	"sync"
	"time"
)

// Series is an append-only (x, y) time series, used for the
// throughput-over-time and occupation-over-time figures.
type Series struct {
	mu sync.Mutex
	xs []float64
	ys []float64
}

// Append records one point.
func (s *Series) Append(x, y float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.xs = append(s.xs, x)
	s.ys = append(s.ys, y)
}

// Len returns the number of points.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.xs)
}

// Points returns copies of the x and y slices.
func (s *Series) Points() (xs, ys []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	xs = append([]float64(nil), s.xs...)
	ys = append([]float64(nil), s.ys...)
	return xs, ys
}

// YStats returns mean, standard deviation, min and max of the y values.
// The standard deviation is the population form, matching the paper's
// "standard deviation of User Write throughput" metric in Fig. 6.
func (s *Series) YStats() (mean, stddev, min, max float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return summarize(s.ys)
}

func summarize(ys []float64) (mean, stddev, min, max float64) {
	if len(ys) == 0 {
		return 0, 0, 0, 0
	}
	min, max = math.Inf(1), math.Inf(-1)
	var sum float64
	for _, y := range ys {
		sum += y
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
	}
	mean = sum / float64(len(ys))
	var varsum float64
	for _, y := range ys {
		d := y - mean
		varsum += d * d
	}
	stddev = math.Sqrt(varsum / float64(len(ys)))
	return mean, stddev, min, max
}

// ThroughputWindow accumulates byte counts and emits one MB/s sample per
// fixed window of simulated (or real) time. It reproduces the per-minute
// sampling the paper uses for Figs. 5 and 6.
type ThroughputWindow struct {
	mu       sync.Mutex
	window   time.Duration
	start    time.Duration // current window start on the supplied clock
	bytes    int64
	series   *Series
	anchored bool
}

// NewThroughputWindow creates a windowed throughput recorder emitting into
// series; window must be positive.
func NewThroughputWindow(window time.Duration, series *Series) *ThroughputWindow {
	if window <= 0 {
		panic("experiments: non-positive throughput window")
	}
	return &ThroughputWindow{window: window, series: series}
}

// Record adds n bytes at time now (any monotonically non-decreasing clock,
// e.g. the SSD simulator's virtual clock). When now crosses a window
// boundary, the just-closed window is appended to the series as
// (windowEndMinutes, MB/s).
//
// Idle gaps are elided: if more than one whole window elapsed with no
// recorded bytes, the closed window is emitted (possibly as a single
// zero sample marking the gap's start) and the remaining empty windows
// are skipped in one step rather than appended as a run of zero points.
// This deviates from the strict Fig. 5/6 per-minute semantics — those
// plots show a contiguous minute axis — but a long idle stretch on a
// real clock would otherwise flood the series with thousands of zeros.
func (t *ThroughputWindow) Record(now time.Duration, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.anchored {
		t.start = now
		t.anchored = true
	}
	if now-t.start >= t.window {
		t.flushLocked()
		if gap := now - t.start; gap >= t.window {
			t.start += gap / t.window * t.window
		}
	}
	t.bytes += n
}

// Flush emits the current partial window if it holds any bytes.
func (t *ThroughputWindow) Flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bytes > 0 {
		t.flushLocked()
	}
}

func (t *ThroughputWindow) flushLocked() {
	end := t.start + t.window
	mbps := float64(t.bytes) / (1 << 20) / t.window.Seconds()
	t.series.Append(end.Minutes(), mbps)
	t.start = end
	t.bytes = 0
}
