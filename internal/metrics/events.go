package metrics

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// defaultEventCap is the ring size when NewEventLog is given 0.
const defaultEventCap = 1024

// EventType names one kind of fleet lifecycle event.
type EventType string

// The event vocabulary: the discrete state changes an operator replays
// to explain a dip in the SLO curve.
const (
	EventVersionPublish  EventType = "version.publish"
	EventVersionRetire   EventType = "version.retire"
	EventNodeUp          EventType = "node.up"
	EventNodeDown        EventType = "node.down"
	EventBreakerOpen     EventType = "breaker.open"
	EventBreakerHalfOpen EventType = "breaker.half_open"
	EventBreakerClose    EventType = "breaker.close"
	EventHandoffEnqueue  EventType = "handoff.enqueue"
	EventHandoffDrain    EventType = "handoff.drain"
	EventSLOBurn         EventType = "slo.burn"
	EventSLOClear        EventType = "slo.clear"
)

// Event is one typed, timestamped entry in the structured event log.
// Seq is a log-wide monotonic cursor: /events?since=<seq> resumes
// exactly after the last event a client saw, even across ring eviction.
type Event struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Type    EventType `json:"type"`
	Node    string    `json:"node,omitempty"`
	Version uint64    `json:"version,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// EventLog is a bounded ring of typed events with a monotonic cursor
// and long-poll support. All methods are safe for concurrent use and
// no-ops on a nil receiver, so subsystems emit unconditionally.
type EventLog struct {
	mu     sync.Mutex
	ring   []Event
	next   int
	limit  int
	seq    uint64
	notify chan struct{} // closed and replaced on every append
}

// NewEventLog returns a ring holding the most recent capacity events (0
// selects the default of 1024).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = defaultEventCap
	}
	return &EventLog{
		ring:   make([]Event, 0, capacity),
		limit:  capacity,
		notify: make(chan struct{}),
	}
}

// Emit appends one event, stamping its sequence number and (when unset)
// its timestamp. Returns the assigned sequence (0 on a nil log).
func (l *EventLog) Emit(typ EventType, node string, version uint64, detail string) uint64 {
	return l.Append(Event{Type: typ, Node: node, Version: version, Detail: detail})
}

// Emitf is Emit with a formatted detail string.
func (l *EventLog) Emitf(typ EventType, node string, version uint64, format string, args ...any) uint64 {
	if l == nil {
		return 0
	}
	return l.Emit(typ, node, version, fmt.Sprintf(format, args...))
}

// Append inserts e, stamping Seq (always) and Time (when zero).
func (l *EventLog) Append(e Event) uint64 {
	if l == nil {
		return 0
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	if len(l.ring) < l.limit {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.next] = e
		l.next = (l.next + 1) % l.limit
	}
	notify := l.notify
	l.notify = make(chan struct{})
	l.mu.Unlock()
	close(notify)
	return e.Seq
}

// LastSeq returns the sequence number of the newest event (0 when none
// were ever emitted).
func (l *EventLog) LastSeq() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Since returns retained events with Seq > since, oldest first; max > 0
// keeps only the newest max of them. A cursor older than the ring's
// tail silently resumes at the oldest retained event — the gap is
// visible to the caller as non-contiguous sequence numbers.
func (l *EventLog) Since(since uint64, max int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]Event, 0, len(l.ring))
	for _, e := range append(append([]Event(nil), l.ring[l.next:]...), l.ring[:l.next]...) {
		if e.Seq > since {
			out = append(out, e)
		}
	}
	l.mu.Unlock()
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// Wait blocks until at least one event with Seq > since exists (long
// poll), returning the matching events, or nil when ctx expires first.
func (l *EventLog) Wait(ctx context.Context, since uint64) []Event {
	if l == nil {
		return nil
	}
	for {
		l.mu.Lock()
		notify := l.notify
		ready := l.seq > since
		l.mu.Unlock()
		if ready {
			if evs := l.Since(since, 0); len(evs) > 0 {
				return evs
			}
			// Everything after the cursor was already evicted and no
			// newer events remain retained; wait for the next append.
		}
		select {
		case <-notify:
		case <-ctx.Done():
			return nil
		}
	}
}

// MarshalJSON exports the retained events, oldest first.
func (l *EventLog) MarshalJSON() ([]byte, error) {
	evs := l.Since(0, 0)
	if evs == nil {
		evs = []Event{}
	}
	return json.Marshal(evs)
}

// WriteTo dumps the retained events as text, oldest first — the
// /events page.
func (l *EventLog) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, e := range l.Since(0, 0) {
		suffix := ""
		if e.Node != "" {
			suffix += " node=" + e.Node
		}
		if e.Version != 0 {
			suffix += fmt.Sprintf(" v%d", e.Version)
		}
		if e.Detail != "" {
			suffix += " " + e.Detail
		}
		n, err := fmt.Fprintf(w, "%d %s %s%s\n",
			e.Seq, e.Time.Format(time.RFC3339Nano), e.Type, suffix)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
