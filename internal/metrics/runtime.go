package metrics

import (
	"math"
	runtimemetrics "runtime/metrics"
	"sync"
	"time"
)

// Default RuntimeSampler cadence: one reading per second. One sample is
// a handful of runtime/metrics reads — cheap enough to leave on in
// production, which is the whole point of continuous profiling.
const defaultRuntimeInterval = time.Second

// Preferred runtime/metrics keys, with fallbacks for toolchains that
// predate a rename. Resolved once against metrics.All() at first use so
// a missing key degrades to a zero field instead of a panic.
var runtimeKeyCandidates = map[string][]string{
	"heapLive":   {"/memory/classes/heap/objects:bytes"},
	"heapGoal":   {"/gc/heap/goal:bytes"},
	"stacks":     {"/memory/classes/heap/stacks:bytes"},
	"mapped":     {"/memory/classes/total:bytes"},
	"allocBytes": {"/gc/heap/allocs:bytes"},
	"allocObjs":  {"/gc/heap/allocs:objects"},
	"goroutines": {"/sched/goroutines:goroutines"},
	"gcCycles":   {"/gc/cycles/total:gc-cycles"},
	"gcPauses":   {"/sched/pauses/total/gc:seconds", "/gc/pauses:seconds"},
	"schedLat":   {"/sched/latencies:seconds"},
	"gcCPU":      {"/cpu/classes/gc/total:cpu-seconds"},
	"totalCPU":   {"/cpu/classes/total:cpu-seconds"},
}

// resolveRuntimeKeys intersects the candidates with what this
// toolchain's runtime actually exports.
var resolveRuntimeKeys = sync.OnceValue(func() map[string]string {
	have := make(map[string]bool)
	for _, d := range runtimemetrics.All() {
		have[d.Name] = true
	}
	out := make(map[string]string, len(runtimeKeyCandidates))
	for field, candidates := range runtimeKeyCandidates {
		for _, name := range candidates {
			if have[name] {
				out[field] = name
				break
			}
		}
	}
	return out
})

// RuntimeSample is one reading of the Go runtime's own telemetry: where
// the heap stands, what the collector is costing, and how contended the
// scheduler is. Distribution fields (GC pause p99, scheduling-latency
// p99) are computed over the *delta* since the previous sample, so they
// describe the last interval rather than the whole process lifetime.
type RuntimeSample struct {
	TS                time.Time `json:"ts"`
	HeapLiveBytes     uint64    `json:"heap_live_bytes"`
	HeapGoalBytes     uint64    `json:"heap_goal_bytes"`
	StackBytes        uint64    `json:"stack_bytes"`
	RuntimeTotalBytes uint64    `json:"runtime_total_bytes"` // all memory mapped by the Go runtime
	TotalAllocBytes   uint64    `json:"total_alloc_bytes"`   // cumulative since process start
	TotalAllocObjects uint64    `json:"total_alloc_objects"` // cumulative since process start
	Goroutines        int64     `json:"goroutines"`
	GCCycles          uint64    `json:"gc_cycles"`
	GCPauseP99Us      float64   `json:"gc_pause_p99_us"`  // over pauses since the previous sample
	GCCPUFraction     float64   `json:"gc_cpu_fraction"`  // over CPU spent since the previous sample
	SchedLatP99Us     float64   `json:"sched_lat_p99_us"` // over latencies since the previous sample
}

// RuntimeSamplerConfig shapes a RuntimeSampler.
type RuntimeSamplerConfig struct {
	// Interval is the sampling cadence (default 1 s). On-demand reads
	// (gauges, SampleNow) sharper than the interval reuse the previous
	// sample, so a Prometheus scrape touching ten runtime gauges costs
	// one runtime/metrics read, not ten.
	Interval time.Duration
	// Now overrides the clock (tests). Defaults to time.Now.
	Now func() time.Time
}

// RuntimeSampler continuously reads runtime/metrics into its latest
// RuntimeSample reading. Start launches a background ticker;
// without Start the sampler still works pull-style — every gauge read
// or SampleNow call refreshes the reading when it is older than the
// interval. All methods are safe for concurrent use and no-ops on a nil
// receiver, matching the rest of the metrics package.
type RuntimeSampler struct {
	interval time.Duration
	now      func() time.Time

	mu        sync.Mutex
	buf       []runtimemetrics.Sample
	bufIdx    map[string]int // logical field -> index into buf
	prevPause []uint64       // previous cumulative GC pause bucket counts
	prevSched []uint64       // previous cumulative sched latency bucket counts
	prevGCCPU float64
	prevCPU   float64
	count     int64
	last      RuntimeSample

	stop     chan struct{}
	done     chan struct{}
	startOne sync.Once
	closeOne sync.Once
}

// NewRuntimeSampler builds a sampler for cfg, filling defaults for zero
// fields. The first sample is taken eagerly so Last is never zero on a
// live sampler.
func NewRuntimeSampler(cfg RuntimeSamplerConfig) *RuntimeSampler {
	if cfg.Interval <= 0 {
		cfg.Interval = defaultRuntimeInterval
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &RuntimeSampler{
		interval: cfg.Interval,
		now:      cfg.Now,
		bufIdx:   make(map[string]int),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	keys := resolveRuntimeKeys()
	for field, name := range keys {
		s.bufIdx[field] = len(s.buf)
		s.buf = append(s.buf, runtimemetrics.Sample{Name: name})
	}
	s.SampleNow()
	return s
}

// Start launches the periodic sampling goroutine. Safe to call once;
// further calls are no-ops.
func (s *RuntimeSampler) Start() {
	if s == nil {
		return
	}
	s.startOne.Do(func() {
		go s.loop()
	})
}

func (s *RuntimeSampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.SampleNow()
		case <-s.stop:
			return
		}
	}
}

// Close stops the sampling goroutine (if started). Safe to call more
// than once, and after Close the sampler still answers pull-style.
func (s *RuntimeSampler) Close() error {
	if s == nil {
		return nil
	}
	s.closeOne.Do(func() {
		close(s.stop)
		s.startOne.Do(func() { close(s.done) }) // never started: unblock the wait
		<-s.done
	})
	return nil
}

// SampleNow takes one reading immediately, keeps it as the latest, and
// returns it. Safe for concurrent use with the ticker.
func (s *RuntimeSampler) SampleNow() RuntimeSample {
	if s == nil {
		return RuntimeSample{}
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	runtimemetrics.Read(s.buf)
	sample := RuntimeSample{
		TS:                now,
		HeapLiveBytes:     s.uint64Field("heapLive"),
		HeapGoalBytes:     s.uint64Field("heapGoal"),
		StackBytes:        s.uint64Field("stacks"),
		RuntimeTotalBytes: s.uint64Field("mapped"),
		TotalAllocBytes:   s.uint64Field("allocBytes"),
		TotalAllocObjects: s.uint64Field("allocObjs"),
		Goroutines:        int64(s.uint64Field("goroutines")),
		GCCycles:          s.uint64Field("gcCycles"),
	}
	if h := s.histField("gcPauses"); h != nil {
		sample.GCPauseP99Us = histDeltaQuantile(h, s.prevPause, 0.99) * 1e6
		s.prevPause = copyCounts(s.prevPause, h.Counts)
	}
	if h := s.histField("schedLat"); h != nil {
		sample.SchedLatP99Us = histDeltaQuantile(h, s.prevSched, 0.99) * 1e6
		s.prevSched = copyCounts(s.prevSched, h.Counts)
	}
	gcCPU, okGC := s.float64Field("gcCPU")
	totalCPU, okTotal := s.float64Field("totalCPU")
	if okGC && okTotal {
		dGC, dTotal := gcCPU-s.prevGCCPU, totalCPU-s.prevCPU
		if dTotal > 0 {
			frac := dGC / dTotal
			sample.GCCPUFraction = math.Max(0, math.Min(1, frac))
		}
		s.prevGCCPU, s.prevCPU = gcCPU, totalCPU
	}
	s.count++
	s.last = sample
	return sample
}

// refresh takes a fresh sample when the last one is older than the
// interval, so pull-style consumers (gauges, the recorder) stay current
// without a background goroutine.
func (s *RuntimeSampler) refresh() RuntimeSample {
	if s == nil {
		return RuntimeSample{}
	}
	s.mu.Lock()
	last, stale := s.last, s.now().Sub(s.last.TS) >= s.interval
	s.mu.Unlock()
	if stale {
		return s.SampleNow()
	}
	return last
}

// Last returns the most recent sample (zero on nil or before any
// sample), refreshing first when the reading has gone stale.
func (s *RuntimeSampler) Last() RuntimeSample {
	if s == nil {
		return RuntimeSample{}
	}
	return s.refresh()
}

// Count returns how many samples were ever taken (0 on nil).
func (s *RuntimeSampler) Count() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Register exposes the sampler on a registry as computed gauges under
// the runtime.* prefix, so the Prometheus exposition, JSON snapshots,
// OpMetrics and `qindbctl stats -watch` all see the Go runtime without
// extra plumbing. Each gauge read refreshes the sample when stale; a
// scrape touching every gauge still costs at most one runtime read.
// Safe on a nil receiver or registry.
func (s *RuntimeSampler) Register(reg *Registry) {
	if s == nil || reg == nil {
		return
	}
	for _, g := range []struct {
		name string
		fn   func(RuntimeSample) float64
	}{
		{"runtime.heap.live_bytes", func(r RuntimeSample) float64 { return float64(r.HeapLiveBytes) }},
		{"runtime.heap.goal_bytes", func(r RuntimeSample) float64 { return float64(r.HeapGoalBytes) }},
		{"runtime.mem.stack_bytes", func(r RuntimeSample) float64 { return float64(r.StackBytes) }},
		{"runtime.mem.total_bytes", func(r RuntimeSample) float64 { return float64(r.RuntimeTotalBytes) }},
		{"runtime.alloc.bytes_total", func(r RuntimeSample) float64 { return float64(r.TotalAllocBytes) }},
		{"runtime.alloc.objects_total", func(r RuntimeSample) float64 { return float64(r.TotalAllocObjects) }},
		{"runtime.goroutines", func(r RuntimeSample) float64 { return float64(r.Goroutines) }},
		{"runtime.gc.cycles", func(r RuntimeSample) float64 { return float64(r.GCCycles) }},
		{"runtime.gc.pause_p99_us", func(r RuntimeSample) float64 { return r.GCPauseP99Us }},
		{"runtime.gc.cpu_fraction", func(r RuntimeSample) float64 { return r.GCCPUFraction }},
		{"runtime.sched.latency_p99_us", func(r RuntimeSample) float64 { return r.SchedLatP99Us }},
	} {
		fn := g.fn
		reg.GaugeFunc(g.name, func() float64 { return fn(s.refresh()) })
	}
}

// uint64Field reads one resolved uint64 metric from the sample buffer
// (0 when the key is unavailable). Runs with s.mu held after Read.
func (s *RuntimeSampler) uint64Field(field string) uint64 {
	i, ok := s.bufIdx[field]
	if !ok || s.buf[i].Value.Kind() != runtimemetrics.KindUint64 {
		return 0
	}
	return s.buf[i].Value.Uint64()
}

// float64Field reads one resolved float64 metric from the sample
// buffer. Runs with s.mu held after Read.
func (s *RuntimeSampler) float64Field(field string) (float64, bool) {
	i, ok := s.bufIdx[field]
	if !ok || s.buf[i].Value.Kind() != runtimemetrics.KindFloat64 {
		return 0, false
	}
	return s.buf[i].Value.Float64(), true
}

// histField reads one resolved histogram metric from the sample buffer.
// Runs with s.mu held after Read.
func (s *RuntimeSampler) histField(field string) *runtimemetrics.Float64Histogram {
	i, ok := s.bufIdx[field]
	if !ok || s.buf[i].Value.Kind() != runtimemetrics.KindFloat64Histogram {
		return nil
	}
	return s.buf[i].Value.Float64Histogram()
}

// histDeltaQuantile computes the q-quantile of a runtime histogram over
// the counts accumulated since prev (prev nil means since process
// start). Runtime histograms are cumulative, so subtracting the
// previous reading's bucket counts yields the distribution of just the
// last interval. Returns the matched bucket's upper boundary (the
// conservative read for a tail quantile), or 0 when the interval saw no
// events.
func histDeltaQuantile(cur *runtimemetrics.Float64Histogram, prev []uint64, q float64) float64 {
	if cur == nil || len(cur.Counts) == 0 {
		return 0
	}
	deltas := make([]uint64, len(cur.Counts))
	var total uint64
	for i, c := range cur.Counts {
		d := c
		if i < len(prev) && prev[i] <= c {
			d = c - prev[i]
		} else if i < len(prev) {
			d = 0 // counter reset (cannot happen in practice); be safe
		}
		deltas[i] = d
		total += d
	}
	if total == 0 {
		return 0
	}
	target := uint64(float64(total) * q)
	if target >= total {
		target = total - 1
	}
	var cum uint64
	for i, d := range deltas {
		cum += d
		if cum > target {
			// Bucket i spans [Buckets[i], Buckets[i+1]).
			hi := cur.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return cur.Buckets[i]
			}
			return hi
		}
	}
	return cur.Buckets[len(cur.Buckets)-1]
}

// copyCounts reuses dst to snapshot src, growing it as needed.
func copyCounts(dst []uint64, src []uint64) []uint64 {
	if cap(dst) < len(src) {
		dst = make([]uint64, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}
