package metrics

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func readSamples(t *testing.T, path string) []RecorderSample {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []RecorderSample
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s RecorderSample
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRecorderSamples(t *testing.T) {
	clk := newFakeClock()
	reg := NewRegistry()
	ev := NewEventLog(16)
	slo := NewSLO(SLOConfig{Name: "fleet.read", Target: 0.006, Now: clk.now})
	path := filepath.Join(t.TempDir(), "series.jsonl")
	rec, err := NewRecorder(RecorderConfig{
		Path:             path,
		Registry:         reg,
		SLOs:             []*SLO{slo},
		Events:           ev,
		RateCounters:     []string{"server.ops.get", "server.ops.put"},
		LatencyHistogram: "fleet.read.latency_us",
		Now:              clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	// One second of traffic: 100 gets + 50 puts, some latency, a miss.
	reg.Counter("server.ops.get").Add(100)
	reg.Counter("server.ops.put").Add(50)
	for i := 1; i <= 100; i++ {
		reg.Histogram("fleet.read.latency_us").Observe(float64(i))
	}
	slo.Record(false)
	ev.Emit(EventBreakerOpen, "n2", 0, "")
	clk.advance(time.Second)
	s1, err := rec.SampleNow()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s1.ThroughputOps, 150.0; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("throughput = %g, want %g", got, want)
	}
	if !within(s1.P99Us, 99) {
		t.Fatalf("p99 = %g, want 99 within %g", s1.P99Us, relErr)
	}
	if len(s1.SLO) != 1 || s1.SLO[0].TotalBad != 1 {
		t.Fatalf("slo in sample = %+v", s1.SLO)
	}
	if len(s1.Events) != 1 || s1.Events[0].Type != EventBreakerOpen {
		t.Fatalf("events in sample = %+v", s1.Events)
	}

	// Quiet second: zero throughput, no new events, and a p99 of this
	// second's fast reads alone, not of the slow ones before it.
	for i := 0; i < 100; i++ {
		reg.Histogram("fleet.read.latency_us").Observe(5)
	}
	clk.advance(time.Second)
	s2, err := rec.SampleNow()
	if err != nil {
		t.Fatal(err)
	}
	if s2.ThroughputOps != 0 || len(s2.Events) != 0 {
		t.Fatalf("quiet sample = %+v", s2)
	}
	if !within(s2.P99Us, 5) {
		t.Fatalf("quiet p99 = %g, want 5 within %g", s2.P99Us, relErr)
	}

	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	disk := readSamples(t, path)
	if len(disk) != 2 {
		t.Fatalf("artifact holds %d lines, want 2", len(disk))
	}
	if disk[0].ThroughputOps != s1.ThroughputOps || len(disk[0].Events) != 1 {
		t.Fatalf("artifact line 1 = %+v", disk[0])
	}
}

func TestRecorderTicker(t *testing.T) {
	reg := NewRegistry()
	path := filepath.Join(t.TempDir(), "series.jsonl")
	rec, err := NewRecorder(RecorderConfig{
		Path:     path,
		Interval: 5 * time.Millisecond,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start()
	deadline := time.Now().Add(5 * time.Second)
	for len(readSamples(t, path)) < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(readSamples(t, path)); got < 3 {
		t.Fatalf("ticker wrote %d samples, want >= 3", got)
	}
	// Close is idempotent and the ticker is really stopped.
	n := len(readSamples(t, path))
	time.Sleep(20 * time.Millisecond)
	if len(readSamples(t, path)) != n {
		t.Fatal("recorder still sampling after Close")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderAppends(t *testing.T) {
	reg := NewRegistry()
	path := filepath.Join(t.TempDir(), "series.jsonl")
	for i := 0; i < 2; i++ {
		rec, err := NewRecorder(RecorderConfig{Path: path, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rec.SampleNow(); err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(readSamples(t, path)); got != 2 {
		t.Fatalf("restart truncated the series: %d lines, want 2", got)
	}
}

func TestRecorderNil(t *testing.T) {
	var rec *Recorder
	rec.Start()
	if _, err := rec.SampleNow(); err != nil {
		t.Fatal(err)
	}
	if rec.Close() != nil {
		t.Fatal("nil recorder must no-op")
	}
}

func TestRecorderRuntimeFields(t *testing.T) {
	clk := newFakeClock()
	reg := NewRegistry()
	rt := NewRuntimeSampler(RuntimeSamplerConfig{Interval: time.Hour, Now: clk.now})
	defer rt.Close()
	path := filepath.Join(t.TempDir(), "series.jsonl")
	rec, err := NewRecorder(RecorderConfig{
		Path:     path,
		Registry: reg,
		Runtime:  rt,
		Now:      clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	clk.advance(time.Second)
	s, err := rec.SampleNow()
	if err != nil {
		t.Fatal(err)
	}
	if s.HeapLiveBytes == 0 || s.HeapGoalBytes == 0 || s.Goroutines <= 0 || s.TotalAllocBytes == 0 {
		t.Fatalf("runtime fields missing from sample: %+v", s)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	// Schema round-trip: the JSONL line decodes back to the same values.
	disk := readSamples(t, path)
	if len(disk) != 1 {
		t.Fatalf("artifact holds %d lines, want 1", len(disk))
	}
	got := disk[0]
	if got.HeapLiveBytes != s.HeapLiveBytes || got.HeapGoalBytes != s.HeapGoalBytes ||
		got.Goroutines != s.Goroutines || got.TotalAllocBytes != s.TotalAllocBytes ||
		got.GCPauseP99Us != s.GCPauseP99Us || got.GCCPUFraction != s.GCCPUFraction {
		t.Fatalf("round trip mismatch:\n disk %+v\n mem  %+v", got, s)
	}
	// The raw line carries the documented field names.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"heap_live_bytes", "heap_goal_bytes", "goroutines", "total_alloc_bytes"} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("JSONL line missing %q: %s", key, raw)
		}
	}
}

func TestRecorderWithoutRuntime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.jsonl")
	rec, err := NewRecorder(RecorderConfig{Path: path, Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	s, err := rec.SampleNow()
	if err != nil {
		t.Fatal(err)
	}
	if s.HeapLiveBytes != 0 || s.Goroutines != 0 {
		t.Fatalf("runtime fields set without a sampler: %+v", s)
	}
}
