// Package metrics is a fixture standing in for directload's metrics
// package: handle types promise nil-receiver safety on every exported
// method.
package metrics

import "sync"

type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
}

type Counter struct {
	n int64
}

// Counter is the good case: leading nil guard before any field access.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		if r.counters == nil {
			r.counters = make(map[string]*Counter)
		}
		r.counters[name] = c
	}
	return c
}

// Len is the bad case: dereferences fields with no guard.
func (r *Registry) Len() int { // want `exported method Registry.Len dereferences its receiver without a leading nil guard`
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.counters)
}

// Touch only delegates to other (guarded) exported methods, so it needs
// no guard of its own.
func (r *Registry) Touch(name string) {
	r.Counter(name).Inc()
}

// reset is unexported: internal helpers run on receivers already known
// non-nil.
func (r *Registry) reset() {
	r.counters = nil
}

func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.n++
}

// Add lacks the guard and touches c.n directly.
func (c *Counter) Add(delta int64) { // want `exported method Counter.Add dereferences its receiver without a leading nil guard`
	c.n += delta
}

// Value has a value receiver, which can never be nil.
func (c Counter) Value() int64 {
	return c.n
}

// AttribTable stands in for the per-op resource attribution table.
type AttribTable struct {
	every int64
}

func (t *AttribTable) SampleEvery() int64 {
	if t == nil {
		return 0
	}
	return t.every
}

// Reset misses the guard.
func (t *AttribTable) Reset() { // want `exported method AttribTable.Reset dereferences its receiver without a leading nil guard`
	t.every = 0
}

// pool holds a Counter by value inside the declaring package, which is
// allowed (rule 2 exempts the package that owns the type).
type pool struct {
	spare Counter
}

var _ = pool{}
var _ = (*Registry).reset
