package metrics

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// defaultRecordInterval is the snapshot cadence when RecorderConfig
// leaves Interval zero.
const defaultRecordInterval = time.Second

// RecorderConfig shapes a time-series recorder.
type RecorderConfig struct {
	// Path is the JSONL artifact file, opened in append mode so
	// restarts extend the series instead of truncating it.
	Path string
	// Interval is the snapshot cadence (default 1 s).
	Interval time.Duration
	// Registry supplies throughput counters and the latency histogram.
	Registry *Registry
	// SLOs are snapshotted into every sample.
	SLOs []*SLO
	// Events, when non-nil, contributes the events emitted since the
	// previous sample, so each JSONL line explains its own dip.
	Events *EventLog
	// RateCounters name the registry counters whose summed delta per
	// elapsed second is the sample's throughput (e.g. server.ops.get,
	// server.ops.put).
	RateCounters []string
	// LatencyHistogram names the registry histogram whose p99 (µs)
	// over each sample's own interval is recorded.
	LatencyHistogram string
	// Runtime, when non-nil, contributes Go-runtime telemetry (heap,
	// GC, goroutines) to every sample.
	Runtime *RuntimeSampler
	// Now overrides the clock (tests). Defaults to time.Now.
	Now func() time.Time
}

// RecorderSample is one JSONL line of the recorded series: a timestamp,
// the SLO state, and the throughput, tail latency and structured events
// of the interval since the previous line.
type RecorderSample struct {
	TS            time.Time     `json:"ts"`
	SLO           []SLOSnapshot `json:"slo,omitempty"`
	ThroughputOps float64       `json:"throughput_ops_s"`
	P99Us         float64       `json:"p99_us"`
	Events        []Event       `json:"events,omitempty"`

	// Runtime telemetry, present when RecorderConfig.Runtime is set.
	HeapLiveBytes   uint64  `json:"heap_live_bytes,omitempty"`
	HeapGoalBytes   uint64  `json:"heap_goal_bytes,omitempty"`
	Goroutines      int64   `json:"goroutines,omitempty"`
	GCPauseP99Us    float64 `json:"gc_pause_p99_us,omitempty"`
	GCCPUFraction   float64 `json:"gc_cpu_fraction,omitempty"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes,omitempty"`
}

// Recorder appends periodic RecorderSample lines to a JSONL artifact —
// the flight recorder a chaos run or a canary deploy is judged against
// after the fact. Start launches the ticker; SampleNow records one line
// on demand; Close stops the ticker and syncs the file.
type Recorder struct {
	cfg  RecorderConfig
	file *os.File
	lat  *Histogram // cfg.LatencyHistogram; nil when none is named

	mu       sync.Mutex
	lastOps  int64
	lastLat  Snapshot
	lastTime time.Time
	lastSeq  uint64

	stop     chan struct{}
	done     chan struct{}
	startOne sync.Once
	closeOne sync.Once
}

// NewRecorder opens (creating or appending to) cfg.Path and returns a
// recorder ready to Start. The first sample's throughput is measured
// from construction time.
func NewRecorder(cfg RecorderConfig) (*Recorder, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = defaultRecordInterval
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	f, err := os.OpenFile(cfg.Path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	r := &Recorder{
		cfg:  cfg,
		file: f,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if cfg.LatencyHistogram != "" {
		r.lat = cfg.Registry.Histogram(cfg.LatencyHistogram)
	}
	r.lastOps = r.sumRateCounters()
	r.lastLat = r.lat.Snapshot()
	r.lastTime = cfg.Now()
	r.lastSeq = cfg.Events.LastSeq()
	return r, nil
}

// Start launches the periodic snapshot goroutine. Safe to call once;
// further calls are no-ops.
func (r *Recorder) Start() {
	if r == nil {
		return
	}
	r.startOne.Do(func() {
		go r.loop()
	})
}

func (r *Recorder) loop() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.SampleNow()
		case <-r.stop:
			return
		}
	}
}

// SampleNow takes one snapshot and appends it to the artifact file,
// returning the sample written. Safe for concurrent use with the
// ticker; each call produces exactly one JSONL line.
func (r *Recorder) SampleNow() (RecorderSample, error) {
	if r == nil {
		return RecorderSample{}, nil
	}
	now := r.cfg.Now()
	ops := r.sumRateCounters()
	lat := r.lat.Snapshot()
	seq := r.cfg.Events.LastSeq()
	rt := r.cfg.Runtime.Last() // before r.mu: Last may take its own sample

	r.mu.Lock()
	defer r.mu.Unlock()
	sample := RecorderSample{TS: now}
	if r.cfg.Runtime != nil {
		sample.HeapLiveBytes = rt.HeapLiveBytes
		sample.HeapGoalBytes = rt.HeapGoalBytes
		sample.Goroutines = rt.Goroutines
		sample.GCPauseP99Us = rt.GCPauseP99Us
		sample.GCCPUFraction = rt.GCCPUFraction
		sample.TotalAllocBytes = rt.TotalAllocBytes
	}
	if elapsed := now.Sub(r.lastTime).Seconds(); elapsed > 0 {
		sample.ThroughputOps = float64(ops-r.lastOps) / elapsed
	}
	sample.P99Us = lat.Sub(r.lastLat).P99
	for _, s := range r.cfg.SLOs {
		if s == nil {
			continue
		}
		sample.SLO = append(sample.SLO, s.Snapshot())
	}
	sample.Events = r.cfg.Events.Since(r.lastSeq, 0)
	line, err := json.Marshal(sample)
	if err != nil {
		return sample, err
	}
	if _, err := r.file.Write(append(line, '\n')); err != nil {
		return sample, err
	}
	r.lastOps = ops
	r.lastLat = lat
	r.lastTime = now
	r.lastSeq = seq
	return sample, nil
}

// sumRateCounters loads and sums the configured throughput counters.
func (r *Recorder) sumRateCounters() int64 {
	var total int64
	for _, name := range r.cfg.RateCounters {
		total += r.cfg.Registry.Counter(name).Load()
	}
	return total
}

// Close stops the ticker goroutine (if started) and closes the file.
// Safe to call more than once.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	var err error
	r.closeOne.Do(func() {
		close(r.stop)
		r.startOne.Do(func() { close(r.done) }) // never started: unblock the wait
		<-r.done
		err = r.file.Close()
	})
	return err
}
