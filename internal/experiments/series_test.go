package experiments

import (
	"math"
	"testing"
	"time"
)

func TestSeries(t *testing.T) {
	var s Series
	s.Append(1, 10)
	s.Append(2, 20)
	s.Append(3, 30)
	if s.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", s.Len())
	}
	xs, ys := s.Points()
	if len(xs) != 3 || xs[2] != 3 || ys[2] != 30 {
		t.Fatalf("Points() = %v, %v", xs, ys)
	}
	mean, sd, min, max := s.YStats()
	if mean != 20 || min != 10 || max != 30 {
		t.Fatalf("YStats mean=%v min=%v max=%v", mean, min, max)
	}
	want := math.Sqrt(200.0 / 3.0)
	if math.Abs(sd-want) > 1e-9 {
		t.Fatalf("stddev = %v, want %v", sd, want)
	}
}

func TestSeriesPointsAreCopies(t *testing.T) {
	var s Series
	s.Append(1, 1)
	xs, _ := s.Points()
	xs[0] = 99
	xs2, _ := s.Points()
	if xs2[0] != 1 {
		t.Fatal("Points() must return copies")
	}
}

func TestThroughputWindow(t *testing.T) {
	var s Series
	w := NewThroughputWindow(time.Minute, &s)
	// 1 MiB in the first minute, 2 MiB in the second.
	w.Record(0, 1<<20)
	w.Record(30*time.Second, 0)
	w.Record(time.Minute, 2<<20) // crosses boundary, flushes window 1
	w.Record(2*time.Minute, 0)   // flushes window 2
	xs, ys := s.Points()
	if len(xs) != 2 {
		t.Fatalf("series len = %d, want 2 (%v/%v)", len(xs), xs, ys)
	}
	if math.Abs(ys[0]-1.0/60.0) > 1e-9 {
		t.Fatalf("window1 MB/s = %v, want %v", ys[0], 1.0/60.0)
	}
	if math.Abs(ys[1]-2.0/60.0) > 1e-9 {
		t.Fatalf("window2 MB/s = %v, want %v", ys[1], 2.0/60.0)
	}
	if xs[0] != 1 || xs[1] != 2 {
		t.Fatalf("window end minutes = %v, want [1 2]", xs)
	}
}

func TestThroughputWindowFlushPartial(t *testing.T) {
	var s Series
	w := NewThroughputWindow(time.Minute, &s)
	w.Record(0, 6<<20)
	w.Flush()
	_, ys := s.Points()
	if len(ys) != 1 {
		t.Fatalf("series len = %d, want 1", len(ys))
	}
	if math.Abs(ys[0]-0.1) > 1e-9 { // 6 MiB over a 60 s window
		t.Fatalf("MB/s = %v, want 0.1", ys[0])
	}
}

func TestThroughputWindowGap(t *testing.T) {
	// A long quiet gap is elided: the closed window flushes normally and
	// the idle windows are skipped in one step instead of being appended
	// as a run of zero points (a real-clock idle hour would otherwise
	// add thousands of samples).
	var s Series
	w := NewThroughputWindow(time.Minute, &s)
	w.Record(0, 1<<20)
	w.Record(5*time.Minute, 1<<20)
	xs, ys := s.Points()
	if len(xs) != 1 {
		t.Fatalf("series len = %d, want 1 (%v/%v)", len(xs), xs, ys)
	}
	if xs[0] != 1 {
		t.Fatalf("window end = %v min, want 1", xs[0])
	}
	// The four idle windows were skipped: the second record lands in
	// the window containing its timestamp.
	w.Flush()
	xs, _ = s.Points()
	if len(xs) != 2 || xs[1] != 6 {
		t.Fatalf("after flush xs = %v, want [1 6]", xs)
	}
}

func TestThroughputWindowGapZeroMarker(t *testing.T) {
	// When the open window itself was empty, the flush emits a single
	// zero sample marking the start of the gap before skipping the rest.
	var s Series
	w := NewThroughputWindow(time.Minute, &s)
	w.Record(0, 1<<20)
	w.Record(time.Minute, 0)        // flushes window 1 (1 MiB)
	w.Record(10*time.Minute, 1<<20) // window 2 empty: zero marker + skip
	xs, ys := s.Points()
	if len(xs) != 2 {
		t.Fatalf("series len = %d, want 2 (%v/%v)", len(xs), xs, ys)
	}
	if ys[1] != 0 || xs[1] != 2 {
		t.Fatalf("gap marker = (%v, %v), want (2, 0)", xs[1], ys[1])
	}
	// Eight idle windows were skipped, not appended.
	w.Flush()
	if xs, _ = s.Points(); len(xs) != 3 || xs[2] != 11 {
		t.Fatalf("after flush xs = %v, want [1 2 11]", xs)
	}
}
