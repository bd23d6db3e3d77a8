package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestAttribTableChargeAndSnapshot(t *testing.T) {
	tab := NewAttribTable(64)
	if got := tab.SampleEvery(); got != 64 {
		t.Fatalf("SampleEvery = %d, want 64", got)
	}
	tab.Charge("put", ResourceDelta{AllocBytes: 1000, AllocObjects: 10, CPU: 2 * time.Microsecond, Wall: 4 * time.Microsecond})
	tab.Charge("put", ResourceDelta{AllocBytes: 3000, AllocObjects: 30, CPU: 4 * time.Microsecond, Wall: 8 * time.Microsecond})
	tab.Charge("get", ResourceDelta{AllocBytes: 500, AllocObjects: 5})

	snap := tab.Snapshot()
	if snap.SampleEvery != 64 {
		t.Errorf("snapshot SampleEvery = %d, want 64", snap.SampleEvery)
	}
	if len(snap.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(snap.Entries))
	}
	// Sorted by bytes/op descending: put (2000) before get (500).
	if snap.Entries[0].Op != "put" || snap.Entries[1].Op != "get" {
		t.Fatalf("sort order = %q, %q; want put, get", snap.Entries[0].Op, snap.Entries[1].Op)
	}
	p := snap.Entries[0]
	if p.Samples != 2 || p.AllocBytesPerOp != 2000 || p.AllocsPerOp != 20 {
		t.Errorf("put entry = %+v, want samples=2 bytes/op=2000 allocs/op=20", p)
	}
	if p.CPUUsPerOp != 3 || p.WallUsPerOp != 6 {
		t.Errorf("put entry = %+v, want cpu_us=3 wall_us=6", p)
	}
}

func TestAttribTableClamp(t *testing.T) {
	tab := NewAttribTable(0) // clamps to 1
	if got := tab.SampleEvery(); got != 1 {
		t.Fatalf("SampleEvery = %d, want 1", got)
	}
	tab.Charge("", ResourceDelta{AllocBytes: 1}) // empty op ignored
	tab.Charge("x", ResourceDelta{AllocBytes: 1})
	if got := len(tab.Snapshot().Entries); got != 1 {
		t.Fatalf("entries = %d, want 1", got)
	}
}

func TestAttribTableConcurrent(t *testing.T) {
	tab := NewAttribTable(64)
	var wg sync.WaitGroup
	ops := []string{"put", "get", "del", "batch"}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				tab.Charge(ops[(i+j)%len(ops)], ResourceDelta{AllocBytes: 64, AllocObjects: 1})
				if j%100 == 0 {
					tab.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	var total int64
	for _, e := range tab.Snapshot().Entries {
		total += e.Samples
	}
	if total != 8*500 {
		t.Fatalf("total samples = %d, want %d", total, 8*500)
	}
}

func TestAttribTableNil(t *testing.T) {
	var tab *AttribTable
	tab.Charge("put", ResourceDelta{AllocBytes: 1})
	if got := tab.SampleEvery(); got != 0 {
		t.Errorf("nil SampleEvery = %d, want 0", got)
	}
	snap := tab.Snapshot()
	if snap.SampleEvery != 0 || len(snap.Entries) != 0 {
		t.Errorf("nil Snapshot = %+v, want zero", snap)
	}
}

func TestResourceSampleMeasuresAllocs(t *testing.T) {
	s := BeginResourceSample()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	d := s.End()
	_ = sink
	// The runtime's alloc counters carry per-P slack, so assert the bulk
	// of the allocation is visible, not the exact total.
	if d.AllocBytes < 32*4096 {
		t.Errorf("AllocBytes = %d, want >= %d", d.AllocBytes, 32*4096)
	}
	if d.AllocObjects < 32 {
		t.Errorf("AllocObjects = %d, want >= 32", d.AllocObjects)
	}
	if d.Wall <= 0 {
		t.Errorf("Wall = %v, want > 0", d.Wall)
	}
	if threadCPUSupported && d.CPU < 0 {
		t.Errorf("CPU = %v, want >= 0", d.CPU)
	}
}

func TestResourceSampleNilEnd(t *testing.T) {
	var s *ResourceSample
	if d := s.End(); d != (ResourceDelta{}) {
		t.Errorf("nil End = %+v, want zero", d)
	}
}

func TestThreadCPUNanos(t *testing.T) {
	if !threadCPUSupported {
		t.Skip("thread CPU clock unsupported on this platform")
	}
	a := threadCPUNanos()
	if a < 0 {
		t.Fatal("threadCPUNanos returned -1 on a supported platform")
	}
	// Burn a little CPU and confirm the clock moves forward.
	x := 0
	for i := 0; i < 5_000_000; i++ {
		x += i
	}
	_ = x
	b := threadCPUNanos()
	if b < a {
		t.Fatalf("thread CPU clock went backwards: %d -> %d", a, b)
	}
}
