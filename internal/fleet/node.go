package fleet

import (
	"sync"
	"time"

	"directload/internal/server"
)

// breakerState is a node's circuit-breaker position.
type breakerState int

const (
	breakerClosed   breakerState = iota // healthy: requests flow
	breakerOpen                         // tripped: requests skip the node
	breakerHalfOpen                     // cooling off: one trial in flight
)

// String renders the state for Status.
func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// hint is one operation owed to a node that was down when it happened —
// the unit of hinted handoff. Either a put (Key set) or a version drop.
type hint struct {
	op      uint8 // server.OpPut, server.OpPutDedup or server.OpDropVersion
	key     []byte
	version uint64
	value   []byte
}

// node is the router's view of one storage server: a lazily-dialed
// client, the circuit breaker that gates replica selection, and the
// bounded hinted-handoff queue of writes owed to it.
type node struct {
	addr  string // TCP address, also the placement identity
	group int
	opts  []server.DialOption

	mu        sync.Mutex
	cl        *server.Client
	state     breakerState
	fails     int       // consecutive failures
	openUntil time.Time // earliest next trial while open/half-open
	lastErr   string
	handoff   []hint
	dropped   int64 // hints lost to the queue bound
}

// client returns the node's client, dialing on first use. Dialing is
// lazy so a node that is down at construction time degrades the fleet
// instead of failing it; the dial itself runs outside the lock so a
// slow connect never blocks Status or placement.
func (n *node) client() (*server.Client, error) {
	n.mu.Lock()
	cl := n.cl
	n.mu.Unlock()
	if cl != nil {
		return cl, nil
	}
	cl, err := server.Dial(n.addr, n.opts...)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cl != nil {
		// Lost the dial race; keep the established client.
		go cl.Close()
		return n.cl, nil
	}
	n.cl = cl
	return cl, nil
}

// available reports whether the breaker admits a request right now. An
// open breaker lets one trial through per cooldown interval (half-open);
// the trial's outcome — reported via onSuccess/onFailure — decides
// whether the breaker closes or re-arms.
func (n *node) available(cooldown time.Duration) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state == breakerClosed {
		return true
	}
	now := time.Now()
	if now.After(n.openUntil) {
		n.state = breakerHalfOpen
		n.openUntil = now.Add(cooldown)
		return true
	}
	return false
}

// onSuccess records a healthy response: the failure streak resets and
// the breaker closes. Returns true when this call closed a previously
// open or half-open breaker.
func (n *node) onSuccess() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	recovered := n.state != breakerClosed
	n.fails = 0
	n.state = breakerClosed
	n.lastErr = ""
	return recovered
}

// onFailure records a transport failure, tripping the breaker after
// threshold consecutive ones. Returns true when this call opened it.
func (n *node) onFailure(err error, threshold int, cooldown time.Duration) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fails++
	if err != nil {
		n.lastErr = err.Error()
	}
	if n.state != breakerOpen && n.fails >= threshold {
		n.state = breakerOpen
		n.openUntil = time.Now().Add(cooldown)
		return true
	}
	if n.state == breakerHalfOpen {
		// Failed trial: re-arm without waiting for the threshold again.
		n.state = breakerOpen
		n.openUntil = time.Now().Add(cooldown)
	}
	return false
}

// queueHints appends hints to the handoff queue, returning how many were
// queued and how many the handoffLimit bound discarded.
func (n *node) queueHints(hs []hint) (queued, dropped int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, h := range hs {
		if len(n.handoff) >= handoffLimit {
			dropped++
			continue
		}
		n.handoff = append(n.handoff, h)
		queued++
	}
	n.dropped += int64(dropped)
	return queued, dropped
}

// takeHints detaches the whole handoff queue for a drain attempt.
func (n *node) takeHints() []hint {
	n.mu.Lock()
	defer n.mu.Unlock()
	hs := n.handoff
	n.handoff = nil
	return hs
}

// handoffDepth returns the queued hint count.
func (n *node) handoffDepth() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.handoff)
}

// status snapshots the node for Status.
func (n *node) status() NodeStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return NodeStatus{
		ID:               n.addr,
		Addr:             n.addr,
		Group:            n.group,
		Breaker:          n.state.String(),
		ConsecutiveFails: n.fails,
		HandoffDepth:     len(n.handoff),
		HandoffDropped:   n.dropped,
		LastError:        n.lastErr,
	}
}

// close tears down the node's client, if one was ever dialed.
func (n *node) close() error {
	n.mu.Lock()
	cl := n.cl
	n.cl = nil
	n.mu.Unlock()
	if cl == nil {
		return nil
	}
	return cl.Close()
}
