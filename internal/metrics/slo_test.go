package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestSLONil(t *testing.T) {
	var s *SLO
	s.Record(true)
	s.Record(false)
	s.Register(NewRegistry()) // must not panic
	NewSLO(SLOConfig{Name: "x"}).Register(nil)
}

func TestSLORegisterGauges(t *testing.T) {
	reg := NewRegistry()
	s := NewSLO(SLOConfig{Name: "fleet.read", Target: 0.006})
	s.Record(true) // recorded before Register: still counted
	s.Register(reg)
	s.Record(true)
	s.Record(false)

	var sb strings.Builder
	if _, err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE slo_fleet_read_good counter\nslo_fleet_read_good 2\n",
		"# TYPE slo_fleet_read_bad counter\nslo_fleet_read_bad 1\n",
		"# TYPE slo_fleet_read_target gauge\nslo_fleet_read_target 0.006\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	snap := reg.Snapshot()
	if snap["slo.fleet.read.good"] != int64(2) || snap["slo.fleet.read.bad"] != int64(1) {
		t.Fatalf("snapshot good/bad = %v/%v, want 2/1", snap["slo.fleet.read.good"], snap["slo.fleet.read.bad"])
	}
}

// TestSLORecordConcurrent: Record is one atomic add, so concurrent
// producers lose nothing and allocate nothing.
func TestSLORecordConcurrent(t *testing.T) {
	const workers, perWorker = 8, 5000
	s := NewSLO(SLOConfig{Name: "node.read", Target: 0.006})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Record((w+i)%10 != 0) // one in ten is bad
			}
		}(w)
	}
	wg.Wait()
	if good, bad := s.good.Load(), s.bad.Load(); good != workers*perWorker*9/10 || bad != workers*perWorker/10 {
		t.Fatalf("good/bad = %d/%d, want %d/%d", good, bad, workers*perWorker*9/10, workers*perWorker/10)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Record(true); s.Record(false) }); allocs != 0 {
		t.Fatalf("Record allocates %.1f objects per call pair, want 0", allocs)
	}
}
