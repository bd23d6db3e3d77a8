package metrics

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRuntimeSamplerSampleNow(t *testing.T) {
	s := NewRuntimeSampler(RuntimeSamplerConfig{Interval: time.Hour})
	defer s.Close()

	got := s.Last()
	if got.TS.IsZero() {
		t.Fatal("eager first sample missing")
	}
	if got.HeapLiveBytes == 0 {
		t.Error("HeapLiveBytes = 0, want > 0")
	}
	if got.HeapGoalBytes == 0 {
		t.Error("HeapGoalBytes = 0, want > 0")
	}
	if got.RuntimeTotalBytes == 0 {
		t.Error("RuntimeTotalBytes = 0, want > 0")
	}
	if got.Goroutines <= 0 {
		t.Errorf("Goroutines = %d, want > 0", got.Goroutines)
	}
	if got.TotalAllocBytes == 0 {
		t.Error("TotalAllocBytes = 0, want > 0")
	}
}

func TestRuntimeSamplerGCDelta(t *testing.T) {
	s := NewRuntimeSampler(RuntimeSamplerConfig{Interval: time.Hour})
	defer s.Close()

	before := s.Last().GCCycles
	runtime.GC()
	runtime.GC()
	after := s.SampleNow()
	if after.GCCycles <= before {
		t.Errorf("GCCycles did not advance: before=%d after=%d", before, after.GCCycles)
	}
	// Two forced GCs happened inside the last interval, so the delta
	// pause histogram must be non-empty and p99 positive.
	if after.GCPauseP99Us <= 0 {
		t.Errorf("GCPauseP99Us = %v, want > 0 after forced GC", after.GCPauseP99Us)
	}
	if after.GCCPUFraction < 0 || after.GCCPUFraction > 1 {
		t.Errorf("GCCPUFraction = %v, want within [0,1]", after.GCCPUFraction)
	}
}

func TestRuntimeSamplerPullRefresh(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	s := NewRuntimeSampler(RuntimeSamplerConfig{Interval: time.Minute, Now: clock})
	defer s.Close()

	c0 := s.Count()
	s.Last() // fresh: must not resample
	if got := s.Count(); got != c0 {
		t.Fatalf("Last() on a fresh sample resampled: count %d -> %d", c0, got)
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	s.Last() // stale: must resample
	if got := s.Count(); got != c0+1 {
		t.Fatalf("Last() on a stale sample did not resample: count %d -> %d", c0, got)
	}
}

func TestRuntimeSamplerRegister(t *testing.T) {
	reg := NewRegistry()
	s := NewRuntimeSampler(RuntimeSamplerConfig{Interval: time.Hour})
	defer s.Close()
	s.Register(reg)

	snap := reg.Snapshot()
	for _, name := range []string{
		"runtime.heap.live_bytes",
		"runtime.heap.goal_bytes",
		"runtime.goroutines",
		"runtime.gc.cycles",
		"runtime.gc.pause_p99_us",
		"runtime.gc.cpu_fraction",
		"runtime.sched.latency_p99_us",
		"runtime.alloc.bytes_total",
	} {
		v, ok := snap[name]
		if !ok {
			t.Errorf("gauge %q missing from snapshot", name)
			continue
		}
		f, ok := v.(float64)
		if !ok {
			t.Errorf("gauge %q: got %T, want float64", name, v)
			continue
		}
		switch name {
		case "runtime.heap.live_bytes", "runtime.heap.goal_bytes",
			"runtime.goroutines", "runtime.alloc.bytes_total":
			if f <= 0 {
				t.Errorf("gauge %q = %v, want > 0", name, f)
			}
		}
	}
}

func TestRuntimeSamplerPromExposition(t *testing.T) {
	reg := NewRegistry()
	s := NewRuntimeSampler(RuntimeSamplerConfig{Interval: time.Hour})
	defer s.Close()
	s.Register(reg)

	var sb strings.Builder
	if _, err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"runtime_heap_live_bytes",
		"runtime_goroutines",
		"runtime_gc_pause_p99_us",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRuntimeSamplerStartTicker(t *testing.T) {
	s := NewRuntimeSampler(RuntimeSamplerConfig{Interval: time.Millisecond})
	s.Start()
	deadline := time.After(2 * time.Second)
	for s.Count() < 3 {
		select {
		case <-deadline:
			t.Fatalf("ticker took too long: count=%d", s.Count())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // double close is safe
		t.Fatal(err)
	}
}

func TestRuntimeSamplerCloseWithoutStart(t *testing.T) {
	s := NewRuntimeSampler(RuntimeSamplerConfig{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeSamplerNil(t *testing.T) {
	var s *RuntimeSampler
	s.Start()
	s.Register(NewRegistry())
	if got := s.SampleNow(); !got.TS.IsZero() {
		t.Errorf("nil SampleNow = %+v, want zero", got)
	}
	if got := s.Last(); !got.TS.IsZero() {
		t.Errorf("nil Last = %+v, want zero", got)
	}
	if got := s.Count(); got != 0 {
		t.Errorf("nil Count = %d, want 0", got)
	}
	if err := s.Close(); err != nil {
		t.Errorf("nil Close = %v, want nil", err)
	}
}

func TestHistDeltaQuantileMath(t *testing.T) {
	// Synthetic histogram check is exercised through forced GC above;
	// here verify copyCounts semantics used between samples.
	dst := copyCounts(nil, []uint64{1, 2, 3})
	if len(dst) != 3 || dst[2] != 3 {
		t.Fatalf("copyCounts = %v", dst)
	}
	dst2 := copyCounts(dst, []uint64{4, 5})
	if len(dst2) != 2 || dst2[0] != 4 {
		t.Fatalf("copyCounts reuse = %v", dst2)
	}
}
