package metrics

import (
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("Load() = %d, want 42", got)
	}
	c.Add(-5) // ignored: monotonic
	if got := c.Load(); got != 42 {
		t.Fatalf("Load() after negative Add = %d, want 42", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Fatalf("Load() = %d, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Fatalf("Load() = %d, want 7", got)
	}
}

// relErr is the histogram's stated quantile error (DESIGN.md §11): the
// layout itself guarantees 1/64.
const relErr = 0.02

// within reports whether got is inside the stated error of want.
func within(got, want float64) bool {
	return math.Abs(got-want) <= relErr*want
}

func TestHistogramExactQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d, want 100", s.Count)
	}
	if got := h.Mean(); !within(got, 50.5) {
		t.Fatalf("Mean() = %v, want 50.5 within %v", got, relErr)
	}
	if s.Min != 1 {
		t.Fatalf("Min = %v, want 1", s.Min)
	}
	if s.Max != 100 {
		t.Fatalf("Max = %v, want 100", s.Max)
	}
	// Rank floor(q*99) of 1..100: the 50th and the 99th value.
	if !within(s.P50, 50) {
		t.Fatalf("P50 = %v, want 50 within %v", s.P50, relErr)
	}
	if !within(s.P99, 99) {
		t.Fatalf("P99 = %v, want 99 within %v", s.P99, relErr)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	snap := h.Snapshot()
	if snap.P50 != 0 || h.Mean() != 0 || snap.Min != 0 || snap.Max != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if snap.Count != 0 {
		t.Fatalf("Snapshot().Count = %d, want 0", snap.Count)
	}
}

func TestHistogramConstantFootprint(t *testing.T) {
	// The histogram is one fixed array: no pointer to grow through, at
	// most 8 KB, and a million observations allocate nothing while the
	// count stays exact and the mean inside the stated error.
	if size := unsafe.Sizeof(Histogram{}); size > 8<<10 {
		t.Fatalf("Histogram is %d bytes, want <= 8 KB", size)
	}
	h := NewHistogram()
	if allocs := testing.AllocsPerRun(100, func() { h.Observe(12.5) }); allocs != 0 {
		t.Fatalf("Observe allocates %v times per call, want 0", allocs)
	}
	h = NewHistogram()
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 500_000; i++ {
			h.Observe(float64(i % 1000))
		}
	})
	if allocs != 0 {
		t.Fatalf("500k observations allocated %v times, want 0", allocs)
	}
	if got := h.Snapshot().Count; got != 1_000_000 { // AllocsPerRun(1, f) runs f twice
		t.Fatalf("Count = %d, want 1000000", got)
	}
	if got := h.Mean(); !within(got, 499.5) {
		t.Fatalf("Mean() = %v, want 499.5 within %v", got, relErr)
	}
	if q := h.Snapshot().P50; !within(q, 499) {
		t.Fatalf("P50 = %v, want 499 within %v", q, relErr)
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	sat := bucketLower(histBuckets) // what +Inf is recorded as
	for _, tc := range []struct {
		name       string
		in         []float64
		count      int64
		min, max   float64
		mean       float64
		wantBucket int // bucket of the last value, -1 = none counted
	}{
		{"NaN is dropped", []float64{math.NaN()}, 0, 0, 0, 0, -1},
		{"NaN beside a value", []float64{7, math.NaN()}, 1, 7, 7, 7, -1},
		{"negative counts as zero", []float64{-3}, 1, 0, 0, 0, 0},
		{"-Inf counts as zero", []float64{math.Inf(-1)}, 1, 0, 0, 0, 0},
		{"negative zero", []float64{math.Copysign(0, -1), 4}, 2, 0, 4, bucketValue(bucketOf(4)) / 2, bucketOf(4)},
		{"subnormal", []float64{5e-324}, 1, 5e-324, 5e-324, 5e-324, 0},
		{"below the first octave", []float64{0.03}, 1, 0.03, 0.03, 0.03, 0},
		{"first octave", []float64{0.03125}, 1, 0.03125, 0.03125, 0.03125, 1},
		{"past the top keeps its max", []float64{1e12}, 1, 1e12, 1e12, 1e12, histBuckets - 1},
		{"+Inf saturates", []float64{math.Inf(1)}, 1, sat, sat, sat, histBuckets - 1},
	} {
		h := NewHistogram()
		for _, v := range tc.in {
			h.Observe(v)
		}
		s := h.Snapshot()
		if s.Count != tc.count || s.Min != tc.min || s.Max != tc.max || s.Mean != tc.mean {
			t.Errorf("%s: count=%d min=%v max=%v mean=%v, want %d %v %v %v",
				tc.name, s.Count, s.Min, s.Max, s.Mean, tc.count, tc.min, tc.max, tc.mean)
		}
		if tc.wantBucket >= 0 && h.buckets[tc.wantBucket].Load() == 0 {
			t.Errorf("%s: bucket %d is empty", tc.name, tc.wantBucket)
		}
		if !(s.Min <= s.P50 && s.P50 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) || math.IsNaN(s.Mean) || math.IsInf(s.Max, 0) {
			t.Errorf("%s: snapshot %+v", tc.name, s)
		}
	}
}

func TestBucketLayout(t *testing.T) {
	// Every bucket edge maps back to its own bucket, the value just
	// below it to the previous one, and no midpoint is further than the
	// stated error from either edge.
	for i := 1; i < histBuckets; i++ {
		lo := bucketLower(i)
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucketOf(bucketLower(%d)=%v) = %d", i, lo, got)
		}
		if got := bucketOf(math.Nextafter(lo, 0)); got != i-1 {
			t.Fatalf("bucketOf(just below %v) = %d, want %d", lo, got, i-1)
		}
		if i < histBuckets-1 {
			if mid, hi := bucketValue(i), bucketLower(i+1); !within(mid, lo) || !within(mid, hi) {
				t.Fatalf("bucket %d [%v, %v) reports %v: outside %v", i, lo, hi, mid, relErr)
			}
		}
	}
}

func TestHistogramSnapshotOrdering(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 5000; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if !(s.P50 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
		t.Fatalf("quantiles out of order: %+v", s)
	}
}

func TestHistogramSnapshotConsistentUnderConcurrency(t *testing.T) {
	// Interleaved observations must never yield an internally
	// inconsistent summary such as P99 > Max or a count that disagrees
	// with the snapshot's own buckets.
	h := NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := float64(g)
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(v)
				v = math.Mod(v*1.7+3, 1000)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		if !(s.Min <= s.P50 && s.P50 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
			t.Errorf("inconsistent snapshot: %+v", s)
			break
		}
		if s.Mean < s.Min || s.Mean > s.Max {
			t.Errorf("mean out of range: %+v", s)
			break
		}
		var n int64
		for _, b := range s.Buckets {
			n += b.Count
		}
		if n != s.Count {
			t.Errorf("count %d != %d in buckets", s.Count, n)
			break
		}
	}
	close(stop)
	wg.Wait()
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	if s := h.Snapshot(); s.Count != 0 || h.Mean() != 0 || s.P50 != 0 || s.Max != 0 {
		t.Fatalf("nil histogram should report zeros: %+v", s)
	}
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Fatal("nil counter should be a no-op")
	}
	var g *Gauge
	g.Set(5)
	g.Add(1)
	if g.Load() != 0 {
		t.Fatal("nil gauge should be a no-op")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []float64, a, b float64) bool {
		h := NewHistogram()
		for _, v := range vals {
			h.Observe(v)
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		s := h.Snapshot()
		return s.quantile(qa) <= s.quantile(qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// raceBuild reports whether the test binary carries the race detector,
// under which an atomic load costs fifty times its usual price.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// observeAll feeds vals to h from four goroutines and returns them sorted.
func observeAll(h *Histogram, vals []float64) []float64 {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(part []float64) {
			defer wg.Done()
			for _, v := range part {
				h.Observe(v)
			}
		}(vals[g*len(vals)/4 : (g+1)*len(vals)/4])
	}
	wg.Wait()
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return sorted
}

func meanOf(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func TestHistogramOracle(t *testing.T) {
	// A seeded log-normal (median 100) with a tenth of the mass at
	// exactly 250, then a slower burst; every quantile is checked
	// against the sorted sample at rank floor(q*(n-1)).
	rng := rand.New(rand.NewSource(17))
	sample := func(n int, median float64) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			if vals[i] = median * math.Exp(rng.NormFloat64()); i%10 == 0 {
				vals[i] = 2.5 * median
			}
		}
		return vals
	}
	check := func(what string, s Snapshot, sorted []float64) {
		t.Helper()
		n := len(sorted)
		if s.Count != int64(n) {
			t.Errorf("%s: count %d, want %d", what, s.Count, n)
		}
		for _, q := range []struct {
			q   float64
			got float64
		}{{0.5, s.P50}, {0.99, s.P99}, {0.999, s.P999}} {
			if want := sorted[int(q.q*float64(n-1))]; !within(q.got, want) {
				t.Errorf("%s: q%v = %v, exact %v: outside %v", what, q.q, q.got, want, relErr)
			}
		}
	}

	h := NewHistogram()
	first := observeAll(h, sample(100_000, 100))
	snapA := h.Snapshot()
	check("lifetime", snapA, first)
	if want := meanOf(first); !within(snapA.Mean, want) || !within(h.Mean(), want) {
		t.Errorf("mean = %v / %v, want %v within %v", snapA.Mean, h.Mean(), want, relErr)
	}
	if snapA.Min != first[0] || snapA.Max != first[len(first)-1] {
		t.Errorf("min/max = %v/%v, want %v/%v", snapA.Min, snapA.Max, first[0], first[len(first)-1])
	}

	// What the reservoir paid 736 us and a 64 KB copy for: Mean runs
	// the same scan the snapshot's quantiles come from.
	if allocs := testing.AllocsPerRun(100, func() { h.Mean() }); allocs != 0 {
		t.Errorf("Mean allocates %v times per call, want 0", allocs)
	}
	best := time.Hour
	for round := 0; round < 5; round++ {
		start := time.Now()
		for i := 0; i < 200; i++ {
			h.Mean()
		}
		best = min(best, time.Since(start)/200)
	}
	if limit := 5 * time.Microsecond; best > limit && !raceBuild() {
		t.Errorf("Mean on 1e5 observations takes %v, want < %v", best, limit)
	}

	burst := observeAll(h, sample(20_000, 3000))
	interval := h.Snapshot().Sub(snapA)
	check("interval", interval, burst)
	if interval.Min > burst[0] || interval.Max < burst[len(burst)-1] {
		t.Errorf("interval [%v, %v] does not cover the burst [%v, %v]",
			interval.Min, interval.Max, burst[0], burst[len(burst)-1])
	}
	if want := meanOf(burst); !within(interval.Mean, want) {
		t.Errorf("interval mean = %v, want %v within %v", interval.Mean, want, relErr)
	}
	if empty := snapA.Sub(snapA); empty.Count != 0 || empty.P99 != 0 {
		t.Errorf("snapshot minus itself = %+v", empty)
	}
}

// Run with -cpu 1,2,4: the parallel form is the one a served request
// pays, several goroutines observing into the same histogram.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i & 1023))
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				h.Observe(float64(i & 1023))
			}
		})
	})
}
