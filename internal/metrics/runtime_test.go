package metrics

import (
	"runtime"
	"strings"
	"testing"

	"directload/internal/metrics/testutil"
)

// TestRuntimeSamplerRegister: RegisterRuntime installs every runtime.*
// gauge, the level and cumulative ones read non-zero, and registering
// starts nothing that outlives the test.
func TestRuntimeSamplerRegister(t *testing.T) {
	testutil.CheckGoroutines(t)
	reg := NewRegistry()
	RegisterRuntime(reg)
	if len(runtimeGauges) != 9 {
		t.Fatalf("%d runtime gauges, want 9", len(runtimeGauges))
	}

	snap := reg.Snapshot()
	for _, g := range runtimeGauges {
		if _, ok := snap[g.name].(float64); !ok {
			t.Errorf("gauge %q: got %T, want float64", g.name, snap[g.name])
		}
	}
	for _, name := range []string{
		"runtime.heap.live_bytes", "runtime.heap.goal_bytes", "runtime.mem.total_bytes",
		"runtime.alloc.bytes_total", "runtime.goroutines",
	} {
		if v, _ := snap[name].(float64); v <= 0 {
			t.Errorf("%s = %v, want > 0", name, snap[name])
		}
	}
}

// TestRuntimeSamplerPromExposition: every runtime.* gauge is typed as a
// gauge on the prom exposition.
func TestRuntimeSamplerPromExposition(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntime(reg)

	var sb strings.Builder
	if _, err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, g := range runtimeGauges {
		if !strings.Contains(out, "# TYPE "+SanitizePromName(g.name)+" gauge\n") {
			t.Errorf("prom exposition missing %s:\n%s", g.name, out)
		}
	}
}

// TestRuntimeSamplerGCDelta: the GC gauges are read when scraped, so a
// forced GC shows up in the next read.
func TestRuntimeSamplerGCDelta(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntime(reg)

	snap := reg.Snapshot()
	cycles := snap["runtime.gc.cycles"].(float64)
	cpu := snap["runtime.gc.cpu_seconds"].(float64)
	runtime.GC()
	runtime.GC()
	snap = reg.Snapshot()
	if after := snap["runtime.gc.cycles"].(float64); after < cycles+2 {
		t.Errorf("runtime.gc.cycles %v -> %v across two forced GCs, want a rise of at least 2", cycles, after)
	}
	if after := snap["runtime.gc.cpu_seconds"].(float64); after < cpu {
		t.Errorf("runtime.gc.cpu_seconds %v -> %v, want it never to fall", cpu, after)
	}
}

func TestRuntimeSamplerNil(t *testing.T) {
	RegisterRuntime(nil) // must not panic
}
