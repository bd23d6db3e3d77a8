package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// defaultTraceCap is the ring size when NewTracer is given 0.
const defaultTraceCap = 1024

// SpanRecord is one completed span: a named, timestamped interval such
// as a GC cycle, an AOF rotation, a relay hop, or a recovery phase.
// Spans created inside a distributed trace (see StartSpan) additionally
// carry their trace lineage; process-local spans leave those fields 0.
type SpanRecord struct {
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Dur      time.Duration `json:"dur"`
	Err      string        `json:"err,omitempty"`
	TraceID  uint64        `json:"trace_id,omitempty"`
	SpanID   uint64        `json:"span_id,omitempty"`
	ParentID uint64        `json:"parent_id,omitempty"`
	Note     string        `json:"note,omitempty"`
	// Node names the process that recorded the span. Local tracers
	// leave it empty; the cross-node TraceCollector stamps it while
	// merging exports, so a fleet-wide timeline says which machine
	// each span ran on.
	Node string `json:"node,omitempty"`
}

// Tracer keeps a bounded ring buffer of completed spans plus a latency
// histogram per span name, so rare events (GC cycles, rotations,
// recoveries) stay inspectable after the fact without unbounded memory.
// All methods are safe for concurrent use and no-ops on a nil receiver.
type Tracer struct {
	mu    sync.Mutex
	ring  []SpanRecord
	next  int // overwrite cursor once the ring is full
	limit int
	total int64
	hists map[string]*Histogram
}

// NewTracer returns a tracer holding the most recent capacity spans
// (0 selects the default of 1024).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceCap
	}
	return &Tracer{
		ring:  make([]SpanRecord, 0, capacity),
		limit: capacity,
		hists: make(map[string]*Histogram),
	}
}

// noopEnd is the closer handed out by a nil tracer; a shared value keeps
// the nil path allocation-free.
var noopEnd = func(error) {}

// Span starts a span and returns its closer. Call the closer exactly
// once, passing the operation's error (nil for success):
//
//	end := tracer.Span("gc.cycle")
//	...
//	end(err)
func (t *Tracer) Span(name string) func(err error) {
	if t == nil {
		return noopEnd
	}
	start := time.Now()
	return func(err error) {
		t.record(name, start, time.Since(start), err)
	}
}

func (t *Tracer) record(name string, start time.Time, dur time.Duration, err error) {
	rec := SpanRecord{Name: name, Start: start, Dur: dur}
	if err != nil {
		rec.Err = err.Error()
	}
	t.RecordSpan(rec)
}

// RecordSpan inserts a pre-built record — the escape hatch for spans
// whose duration is not wall time (e.g. the network simulator's virtual
// ship times) or that were completed elsewhere. No-op on a nil tracer.
func (t *Tracer) RecordSpan(rec SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total++
	if len(t.ring) < t.limit {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.next] = rec
		t.next = (t.next + 1) % t.limit
	}
	h := t.hists[rec.Name]
	if h == nil {
		h = NewHistogram()
		t.hists[rec.Name] = h
	}
	t.mu.Unlock()
	h.Observe(float64(rec.Dur) / float64(time.Microsecond))
}

// Count returns how many spans were ever recorded (including those that
// have been overwritten in the ring).
func (t *Tracer) Count() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Spans returns the retained spans in chronological order (oldest
// first).
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Latencies returns a consistent latency summary per span name.
func (t *Tracer) Latencies() map[string]Snapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	hists := make(map[string]*Histogram, len(t.hists))
	for k, v := range t.hists {
		hists[k] = v
	}
	t.mu.Unlock()
	out := make(map[string]Snapshot, len(hists))
	for k, h := range hists {
		out[k] = h.Snapshot()
	}
	return out
}

// Trace returns the retained spans of one trace in start order
// (stable-sorted, so equal timestamps keep ring order).
func (t *Tracer) Trace(id uint64) []SpanRecord {
	if t == nil || id == 0 {
		return nil
	}
	var out []SpanRecord
	for _, rec := range t.Spans() {
		if rec.TraceID == id {
			out = append(out, rec)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// WriteTo dumps the per-name latency summaries followed by the retained
// spans, newest last — the /debug/trace page.
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	var total int64
	write := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	lat := t.Latencies()
	names := make([]string, 0, len(lat))
	for name := range lat {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := lat[name]
		if err := write("span %s count=%d mean_us=%.1f p99_us=%.1f max_us=%.1f\n",
			name, s.Count, s.Mean, s.P99, s.Max); err != nil {
			return total, err
		}
	}
	for _, rec := range t.Spans() {
		suffix := ""
		if rec.TraceID != 0 {
			suffix += fmt.Sprintf(" trace=%016x", rec.TraceID)
		}
		if rec.Note != "" {
			suffix += " " + rec.Note
		}
		if rec.Err != "" {
			suffix += " err=" + rec.Err
		}
		if err := write("%s %s %s%s\n",
			rec.Start.Format(time.RFC3339Nano), rec.Name, rec.Dur, suffix); err != nil {
			return total, err
		}
	}
	return total, nil
}
