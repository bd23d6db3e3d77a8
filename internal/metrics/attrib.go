package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// AttribTable accumulates sampled per-operation resource costs. One
// table sits behind a server Backend; every Nth request (SampleEvery)
// is measured with BeginResourceSample and its delta charged to the
// opcode that incurred it. Charge is lock-free on the steady path
// (atomic adds on an existing cell); the write lock is only taken the
// first time an op name appears.
type AttribTable struct {
	every int64

	mu    sync.RWMutex
	cells map[string]*attribCell
}

type attribCell struct {
	samples   atomic.Int64
	allocB    atomic.Int64
	allocObjs atomic.Int64
	cpuNs     atomic.Int64
	wallNs    atomic.Int64
}

// AttribEntry is one operation's averaged resource bill.
type AttribEntry struct {
	Op              string  `json:"op"`
	Samples         int64   `json:"samples"`
	AllocBytesPerOp float64 `json:"alloc_bytes_per_op"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	CPUUsPerOp      float64 `json:"cpu_us_per_op"`
	WallUsPerOp     float64 `json:"wall_us_per_op"`
}

// AttribSnapshot is a point-in-time view of the table, sorted by
// AllocBytesPerOp descending — the read order for a memory hunt.
type AttribSnapshot struct {
	SampleEvery int64         `json:"sample_every"`
	Entries     []AttribEntry `json:"entries"`
}

// NewAttribTable builds a table sampling one request in sampleEvery
// (values < 1 clamp to 1 = measure everything).
func NewAttribTable(sampleEvery int) *AttribTable {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &AttribTable{
		every: int64(sampleEvery),
		cells: make(map[string]*attribCell),
	}
}

// SampleEvery returns the sampling stride (0 on a nil table, meaning
// "never sample").
func (t *AttribTable) SampleEvery() int64 {
	if t == nil {
		return 0
	}
	return t.every
}

// Charge bills one measured request's delta to op.
func (t *AttribTable) Charge(op string, d ResourceDelta) {
	if t == nil || op == "" {
		return
	}
	c := t.cell(op)
	c.samples.Add(1)
	c.allocB.Add(d.AllocBytes)
	c.allocObjs.Add(d.AllocObjects)
	c.cpuNs.Add(int64(d.CPU))
	c.wallNs.Add(int64(d.Wall))
}

func (t *AttribTable) cell(op string) *attribCell {
	t.mu.RLock()
	c := t.cells[op]
	t.mu.RUnlock()
	if c != nil {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c = t.cells[op]; c == nil {
		c = &attribCell{}
		t.cells[op] = c
	}
	return c
}

// Snapshot returns the current per-op averages sorted by bytes/op
// descending (zero snapshot on nil).
func (t *AttribTable) Snapshot() AttribSnapshot {
	if t == nil {
		return AttribSnapshot{}
	}
	t.mu.RLock()
	entries := make([]AttribEntry, 0, len(t.cells))
	for op, c := range t.cells {
		n := c.samples.Load()
		if n == 0 {
			continue
		}
		fn := float64(n)
		entries = append(entries, AttribEntry{
			Op:              op,
			Samples:         n,
			AllocBytesPerOp: float64(c.allocB.Load()) / fn,
			AllocsPerOp:     float64(c.allocObjs.Load()) / fn,
			CPUUsPerOp:      float64(c.cpuNs.Load()) / fn / float64(time.Microsecond),
			WallUsPerOp:     float64(c.wallNs.Load()) / fn / float64(time.Microsecond),
		})
	}
	t.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].AllocBytesPerOp != entries[j].AllocBytesPerOp {
			return entries[i].AllocBytesPerOp > entries[j].AllocBytesPerOp
		}
		return entries[i].Op < entries[j].Op
	})
	return AttribSnapshot{SampleEvery: t.every, Entries: entries}
}
