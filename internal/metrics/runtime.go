package metrics

import runtimemetrics "runtime/metrics"

// runtimeGauges maps each runtime.* gauge onto the runtime/metrics key
// it reads. Every value is cumulative since process start or a level
// right now, so any number of scrapers see the same thing; a scraper
// that wants a rate (GC CPU per second) takes it over its own interval.
var runtimeGauges = []struct{ name, key string }{
	{"runtime.heap.live_bytes", "/memory/classes/heap/objects:bytes"},
	{"runtime.heap.goal_bytes", "/gc/heap/goal:bytes"},
	{"runtime.mem.stack_bytes", "/memory/classes/heap/stacks:bytes"},
	{"runtime.mem.total_bytes", "/memory/classes/total:bytes"},
	{"runtime.alloc.bytes_total", "/gc/heap/allocs:bytes"},
	{"runtime.alloc.objects_total", "/gc/heap/allocs:objects"},
	{"runtime.goroutines", "/sched/goroutines:goroutines"},
	{"runtime.gc.cycles", "/gc/cycles/total:gc-cycles"},
	{"runtime.gc.cpu_seconds", "/cpu/classes/gc/total:cpu-seconds"},
}

// RegisterRuntime installs the Go runtime's own telemetry on reg as
// runtime.* computed gauges, each read from runtime/metrics when the
// registry is exported. Nothing runs between scrapes. Safe on a nil
// registry.
func RegisterRuntime(reg *Registry) {
	for _, g := range runtimeGauges {
		key := g.key
		reg.GaugeFunc(g.name, func() float64 {
			s := []runtimemetrics.Sample{{Name: key}}
			runtimemetrics.Read(s)
			switch s[0].Value.Kind() {
			case runtimemetrics.KindUint64:
				return float64(s[0].Value.Uint64())
			case runtimemetrics.KindFloat64:
				return s[0].Value.Float64()
			}
			return 0
		})
	}
}
