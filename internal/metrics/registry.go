package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sort"
	"sync"
)

// Registry is a named, hierarchical collection of metrics shared by the
// whole system. Names are dotted paths (`server.req.put.latency_us`,
// `aof.rotations`); the dots are a naming convention, not a tree — the
// registry itself is a flat map with a lock-cheap read path.
//
// All methods are safe for concurrent use, and every method is a no-op
// (returning nil handles or zero values) on a nil *Registry, so
// subsystems can accept an optional registry and instrument
// unconditionally: a nil registry yields nil Counter/Gauge/Histogram
// handles whose methods are themselves guarded no-ops, keeping
// uninstrumented hot paths allocation-free.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() float64),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Returns nil (a valid no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// setCounter registers a counter owned by another metrics type (the
// SLO's good/bad cells) under name, replacing any counter already there.
func (r *Registry) setCounter(name string, c *Counter) {
	r.mu.Lock()
	r.counters[name] = c
	r.mu.Unlock()
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil (a valid no-op handle) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. Returns nil (a valid no-op handle) on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// GaugeFunc registers a computed gauge evaluated at export time (e.g. a
// ratio over counters owned by another subsystem). fn must be safe to
// call from any goroutine; re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Snapshot returns every registered metric keyed by name: counters and
// gauges as int64, computed gauges as float64, histograms as Snapshot
// structs. The whole map is JSON-marshalable, which is how OpMetrics and
// the HTTP /metrics endpoint export it. Always non-nil.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return make(map[string]any)
	}
	out := make(map[string]any)
	r.mu.RLock()
	for k, c := range r.counters {
		out[k] = c.Load()
	}
	for k, g := range r.gauges {
		out[k] = g.Load()
	}
	for k, h := range r.hists {
		out[k] = h.Snapshot()
	}
	funcs := maps.Clone(r.funcs)
	r.mu.RUnlock()
	// Only computed gauges are evaluated outside the registry lock: a
	// GaugeFunc may take subsystem locks of its own, and holding r.mu
	// here would order registry-lock before engine-lock for no benefit.
	// The cells above are atomic and lock nothing.
	for k, fn := range funcs {
		out[k] = fn()
	}
	return out
}

// MarshalJSON exports the snapshot, so a *Registry can be embedded in
// JSON payloads directly.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// WriteTo dumps every metric as one text line per name, sorted, in the
// style of expvar: counters and gauges as `name value`, histograms as
// `name count=N mean=M p50=… p99=… p99.9=… max=…`.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	var total int64
	for _, name := range names {
		var line string
		switch v := snap[name].(type) {
		case Snapshot:
			line = fmt.Sprintf("%s count=%d mean=%.1f p50=%.1f p99=%.1f p99.9=%.1f max=%.1f\n",
				name, v.Count, v.Mean, v.P50, v.P99, v.P999, v.Max)
		case float64:
			line = fmt.Sprintf("%s %g\n", name, v)
		default:
			line = fmt.Sprintf("%s %v\n", name, v)
		}
		n, err := io.WriteString(w, line)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
