package metrics

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// defaultSlowLogCap is the ring size when NewSlowLog is given 0.
const defaultSlowLogCap = 256

// slowKeyMax bounds how many key bytes one slow entry retains.
const slowKeyMax = 128

// SlowEntry is one operation that exceeded the slow-op threshold: what
// ran, against which key, how long it took, and how it ended — the line an operator greps for when a publish stalls.
type SlowEntry struct {
	Time time.Time     `json:"time"`
	Op   string        `json:"op"`
	Key  string        `json:"key,omitempty"`
	Dur  time.Duration `json:"dur"`
	Err  string        `json:"err,omitempty"`
}

// SlowLog is a bounded ring of slow operations. Recording is a single
// threshold comparison on the fast path (no lock) and a
// short critical section when an entry actually qualifies. All methods
// are safe for concurrent use and no-ops on a nil receiver.
type SlowLog struct {
	threshold time.Duration // fixed at construction; <=0 disables recording

	mu    sync.Mutex
	ring  []SlowEntry
	next  int
	limit int
}

// NewSlowLog returns a ring holding the most recent capacity entries (0
// selects the default of 256), recording operations at or above
// threshold (<=0 disables recording).
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity <= 0 {
		capacity = defaultSlowLogCap
	}
	return &SlowLog{threshold: threshold, ring: make([]SlowEntry, 0, capacity), limit: capacity}
}

// Maybe records the operation if dur is at or above the threshold. The
// key is copied (truncated to 128 bytes) so callers may reuse buffers.
func (l *SlowLog) Maybe(op string, key []byte, dur time.Duration, errMsg string) {
	if l == nil {
		return
	}
	if l.threshold <= 0 || dur < l.threshold {
		return
	}
	if len(key) > slowKeyMax {
		key = key[:slowKeyMax]
	}
	e := SlowEntry{Time: time.Now(), Op: op, Key: string(key), Dur: dur, Err: errMsg}
	l.mu.Lock()
	if len(l.ring) < l.limit {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.next] = e
		l.next = (l.next + 1) % l.limit
	}
	l.mu.Unlock()
}

// Entries returns the retained entries oldest first. n > 0 keeps only
// the newest n.
func (l *SlowLog) Entries(n int) []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]SlowEntry, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	l.mu.Unlock()
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// FilterEntries returns the retained entries oldest first, keeping only
// those matching op (when non-empty). n > 0
// keeps only the newest n matches — the filter runs before the cut, so
// "-n 5 -op publish" means the five newest publish entries.
func (l *SlowLog) FilterEntries(n int, op string) []SlowEntry {
	if l == nil {
		return nil
	}
	all := l.Entries(0)
	out := all[:0:0]
	for _, e := range all {
		if op == "" || e.Op == op {
			out = append(out, e)
		}
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// WriteSlowEntries renders entries as text, one line each with its
// error when set — the /debug/slowlog page, filtered or not.
func WriteSlowEntries(w io.Writer, entries []SlowEntry) (int64, error) {
	var total int64
	for _, e := range entries {
		suffix := ""
		if e.Err != "" {
			suffix = " err=" + e.Err
		}
		n, err := fmt.Fprintf(w, "%s %s %q %s%s\n",
			e.Time.Format(time.RFC3339Nano), e.Op, e.Key, e.Dur, suffix)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
